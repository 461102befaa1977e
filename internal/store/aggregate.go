package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/stats"
)

// aggregateMagic frames compact campaign summaries — the HXA1 record an
// "agg" output body holds. A campaign that only needs skew statistics has
// no use for per-node trigger histories; the aggregate record carries the
// skew summaries, trigger/event counts, horizon, and wall time in a few
// hundred bytes regardless of grid size, cutting store bytes (and the
// allocation behind them) by orders of magnitude at L20_W12 and above.
const aggregateMagic = "HXA1"

// Aggregate is the compact summary of one single-pulse run, produced by
// the service's aggregate-only execution mode (RunRequest.Output "agg").
type Aggregate struct {
	// Triggered is the number of non-excluded nodes that triggered.
	Triggered uint32
	// Events is the number of simulation events executed.
	Events uint64
	// Horizon is the end of simulated time.
	Horizon sim.Time
	// ElapsedNs is the wall time of the simulation in nanoseconds.
	ElapsedNs uint64
	// IntraSkew and InterSkew summarize the wave's skew samples (ns).
	IntraSkew stats.Summary
	InterSkew stats.Summary
}

// EncodeAggregate serializes an aggregate summary into a framed record.
// The encoding is canonical: equal aggregates encode to equal bytes, and
// DecodeAggregate is its exact inverse (FuzzAggregateCodec asserts the
// bijection, including float bit patterns).
func EncodeAggregate(a *Aggregate) []byte {
	const summarySize = 4 + 6*8
	n := headerSize + 4 + 8 + 8 + 8 + 2*summarySize
	buf := make([]byte, 0, n)
	buf = append(buf, aggregateMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n-headerSize))
	buf = buf[:headerSize]
	buf = binary.LittleEndian.AppendUint32(buf, a.Triggered)
	buf = binary.LittleEndian.AppendUint64(buf, a.Events)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(a.Horizon))
	buf = binary.LittleEndian.AppendUint64(buf, a.ElapsedNs)
	buf = appendSummary(buf, a.IntraSkew)
	buf = appendSummary(buf, a.InterSkew)
	binary.LittleEndian.PutUint32(buf[8:12], crc32Checksum(buf[headerSize:]))
	return buf
}

// DecodeAggregate parses a framed aggregate record; every failure wraps
// ErrCorrupt.
func DecodeAggregate(data []byte) (*Aggregate, error) {
	payload, err := checkFrame(data, aggregateMagic)
	if err != nil {
		return nil, err
	}
	r := reader{buf: payload}
	a := &Aggregate{}
	a.Triggered = r.uint32()
	a.Events = r.uint64()
	a.Horizon = sim.Time(r.uint64())
	a.ElapsedNs = r.uint64()
	a.IntraSkew = readSummary(&r)
	a.InterSkew = readSummary(&r)
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(r.buf))
	}
	return a, nil
}

// appendSummary writes a stats.Summary: the sample count then the six
// statistics as raw IEEE-754 bit patterns (bit-exact round-tripping, no
// formatting loss).
func appendSummary(buf []byte, s stats.Summary) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.N))
	for _, v := range [...]float64{s.Min, s.Q5, s.Avg, s.Q95, s.Max, s.Std} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

func readSummary(r *reader) stats.Summary {
	var s stats.Summary
	s.N = int(r.uint32())
	for _, p := range [...]*float64{&s.Min, &s.Q5, &s.Avg, &s.Q95, &s.Max, &s.Std} {
		*p = math.Float64frombits(r.uint64())
	}
	return s
}
