package cpu

// MultiObserver fans each per-cycle usage vector out to several
// observers, in order. The *Usage passed through is the core's reused
// buffer; the fan-out hands every observer the same pointer, so the usual
// contract applies to each of them — consume the vector during OnCycle,
// never retain the pointer or its slices.
//
// SetObserver overwrites, so a run that needs both telemetry and the
// power accountant watching the same cycles installs
// MultiObserver{telemetry, accountant}.
type MultiObserver []Observer

// OnCycle implements Observer.
func (m MultiObserver) OnCycle(u *Usage) {
	for _, o := range m {
		o.OnCycle(u)
	}
}

// OnQuiet implements QuietObserver: each observer in turn takes the whole
// run, in one OnQuiet call or as n OnCycle calls.
func (m MultiObserver) OnQuiet(u *Usage, n uint64) {
	for _, o := range m {
		ObserveQuiet(o, u, n)
	}
}
