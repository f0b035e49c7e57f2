package cpu

// MultiObserver fans each per-cycle usage vector out to several
// observers, in order. The *Usage passed through is the core's reused
// buffer; the fan-out hands every observer the same pointer, so the usual
// contract applies to each of them — consume the vector during OnCycle,
// never retain the pointer or its slices.
//
// SetObserver overwrites, so a run that needs both the power accountant
// and a trace capturer watching the same cycles installs
// MultiObserver{capturer, accountant}.
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

// MultiIssueListener fans each issue event out to several listeners, in
// order. Events are small value types, so unlike Usage there is no
// retention hazard; the fan-out exists because SetIssueListener
// overwrites and a capturing run needs the gating scheme and the trace
// writer to both see every GRANT signal.
type MultiIssueListener []IssueListener

// OnIssue implements IssueListener.
func (m MultiIssueListener) OnIssue(ev IssueEvent) {
	for _, l := range m {
		l.OnIssue(ev)
	}
}
