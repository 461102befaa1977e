package service

import (
	"context"
	"maps"

	"repro/internal/coalesce"
	"repro/internal/obs"
	"repro/internal/store"
)

// This file adapts internal/store into the service's second cache tier,
// wired into the coalescer as its SecondTier/Persist hooks. Lookup order
// is memory LRU → results awaiting their commit → disk store → compute.
// Completed computations are persisted write-behind by one writer
// goroutine per Service: a worker only queues its finished result and
// takes its next job, and the writer commits whatever has queued up as
// one group (one segment, two fsyncs), so concurrent cold requests share
// their fsyncs. Until its commit returns, a result stays readable from
// the pending map, so an LRU eviction in between never recomputes it.
// A result enters the pending map before its waiters are released, which
// lets Flush wait for every result already returned; Service.Close drains
// the workers, then the writer, which makes it the final flush barrier.
// Store failures are never fatal to a request: a bad read quarantines the
// record and falls through to a recompute, a failed commit only costs
// durability of its entries. Both are counted in StoreErrors, one per
// entry.

// writeQueueLen bounds the write-behind queue. A full queue blocks the
// worker in Persist until the writer catches up, so a slow disk pushes
// back on the worker pool instead of growing memory.
const writeQueueLen = 256

// commitGroup is the writer's commit, a variable so tests can hold it.
var commitGroup = (*store.Store).PutGroup

// pendingWrite is one finished result queued for the writer.
type pendingWrite struct {
	key string
	v   *coalesce.Value
}

// storeGet probes the durable tier, pending results first. ok reports a
// valid hit.
func (s *Service) storeGet(ctx context.Context, key string) (*coalesce.Value, bool) {
	if s.store == nil {
		return nil, false
	}
	s.pendingMu.Lock()
	v, ok := s.pending[key]
	s.pendingMu.Unlock()
	if !ok {
		e, found, err := s.store.Get(key)
		if err != nil {
			// Corrupt or missing records are quarantined by the store,
			// others (an exhausted descriptor table, say) stay indexed;
			// either way the caller recomputes.
			s.Metrics.StoreErrors.Inc()
		}
		if !found {
			return nil, false
		}
		v = &coalesce.Value{Body: e.Body, ContentType: e.ContentType, Events: e.Events}
	}
	obs.FromContext(ctx).Note("store-hit")
	s.Metrics.StoreHits.Inc()
	return v, true
}

// pendingCompute makes a flight's result pending before the coalescer
// releases its waiters (Persist runs only after that), so Flush covers
// every result the service has returned.
func (s *Service) pendingCompute(key string, compute func(context.Context) (*coalesce.Value, error)) func(context.Context) (*coalesce.Value, error) {
	return func(ctx context.Context) (*coalesce.Value, error) {
		v, err := compute(ctx)
		if err == nil {
			s.pendingMu.Lock()
			s.pending[key] = v
			s.pendingMu.Unlock()
		}
		return v, err
	}
}

// persist is the coalescer's Persist hook: it queues v, already pending,
// for the writer.
func (s *Service) persist(key string, v *coalesce.Value) { s.writes <- pendingWrite{key, v} }

// Flush is jobs.Runner's durability barrier: it waits, without committing
// anything itself, until every result pending at the call has had its
// commit (a failed one counts in StoreErrors), or returns ctx's error. It
// returns at once without a store, and after Close.
func (s *Service) Flush(ctx context.Context) error {
	if s.store == nil {
		return nil
	}
	s.pendingMu.Lock()
	wait := maps.Clone(s.pending)
	for {
		maps.DeleteFunc(wait, func(k string, v *coalesce.Value) bool { return s.pending[k] != v })
		committed := s.committed
		s.pendingMu.Unlock()
		if len(wait) == 0 {
			return nil
		}
		select {
		case <-committed:
		case <-ctx.Done():
			return ctx.Err()
		}
		s.pendingMu.Lock()
	}
}

// writeBehind is the writer goroutine: it takes one result, drains what
// else is already queued, and commits them all as one group. It exits
// when Close closes the queue.
func (s *Service) writeBehind(commit func(*store.Store, []store.Entry) error) {
	defer s.writer.Done()
	var group []pendingWrite
	var entries []store.Entry
	for w := range s.writes {
		group = append(group[:0], w)
	drain:
		for {
			select {
			case w, ok := <-s.writes:
				if !ok {
					break drain
				}
				group = append(group, w)
			default:
				break drain
			}
		}
		entries = entries[:0]
		for _, w := range group {
			entries = append(entries, store.Entry{
				Key: w.key, ContentType: w.v.ContentType, Events: w.v.Events, Body: w.v.Body,
			})
		}
		s.storePutGroup(entries, commit)
		s.pendingMu.Lock()
		for _, w := range group {
			// A later result for the same key (recomputed after a failed
			// commit) keeps its own pending slot.
			if s.pending[w.key] == w.v {
				delete(s.pending, w.key)
			}
		}
		close(s.committed)
		s.committed = make(chan struct{})
		s.pendingMu.Unlock()
	}
}

// storePutGroup persists entries as one group commit: one segment file,
// one fsync window, every entry individually readable under its own key
// afterwards. The writer calls it for each drained group, the batch
// worker for each batch's fresh results.
func (s *Service) storePutGroup(entries []store.Entry, commit func(*store.Store, []store.Entry) error) {
	if s.store == nil || len(entries) == 0 {
		return
	}
	s.Metrics.StoreCommitEntries.Observe(float64(len(entries)))
	if err := commit(s.store, entries); err != nil {
		s.Metrics.StoreErrors.Add(uint64(len(entries)))
	} else {
		s.Metrics.StoreWrites.Add(uint64(len(entries)))
	}
}
