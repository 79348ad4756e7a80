package mapping

// Scratch is a per-solve workspace leased from an Evaluator: reusable
// interval, cycle-time and processor buffers that heuristic engines own
// exclusively between LeaseScratch and Release. Leases come from a pool
// bound to the evaluator, so repeated solves against one instance —
// portfolio races, batch elements, sweep grid points, the service
// daemon's cache-miss path — reuse warm buffers instead of allocating,
// while concurrent races each hold their own lease and never share
// state.
//
// The exported slices are working storage, not results: engines re-slice
// and append to them freely and hand capacity back by storing the grown
// slices before Release. Anything that must outlive the lease (a
// *Mapping, a Result) has to be copied out first — New and MustNew
// already copy their interval argument, so materialising a mapping from
// Ivs is safe.
type Scratch struct {
	ev *Evaluator

	// Ivs holds the current interval list of a splitting engine.
	Ivs []Interval
	// Trial is a second interval buffer for engines that score whole
	// candidate mappings (the fully heterogeneous splitter re-evaluates
	// every trial under its link-aware cost model).
	Trial []Interval
	// Cycles holds one cycle-time per entry of Ivs.
	Cycles []float64
	// Procs holds a processor list (the engines' fastest-first free
	// list).
	Procs []int
}

// LeaseScratch takes a scratch workspace from the evaluator's pool. The
// caller owns it exclusively until Release; buffers keep the capacity
// they grew to in earlier leases.
func (ev *Evaluator) LeaseScratch() *Scratch {
	s, _ := ev.scratch.Get().(*Scratch)
	if s == nil {
		s = new(Scratch)
	}
	s.ev = ev
	return s
}

// Release returns the scratch to its evaluator's pool. The caller must
// not touch the workspace afterwards.
func (s *Scratch) Release() {
	ev := s.ev
	s.ev = nil
	ev.scratch.Put(s)
}
