package service

import "testing"

// NewHeldService is newHeldService for the external tests in package
// service_test: a one-worker service whose write-behind commits wait
// until release is called.
func NewHeldService(t *testing.T, opts Options) (s *Service, release func()) {
	s, h := newHeldService(t, opts)
	return s, h.releaseAll
}
