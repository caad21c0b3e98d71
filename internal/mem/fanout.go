package mem

// AttachObserver adds o to the System's observers. o joins the list of
// every event interface it implements (Observer, and optionally
// SchemeObserver, DemandObserver, DemandIssueObserver); each Note* call and
// each demand issue or completion walks its list, so per-event dispatch is a
// plain slice walk with no dynamic type assertions.
//
// Ordering guarantee: for every event, observers are notified
// first-attached-first, synchronously, before the emitting operation
// continues. Consumers may rely on this to compose — e.g. the shadow
// integrity checker is attached before telemetry, so it has validated each
// movement before the tracer or profiler consumes it. All observers see
// the identical event stream; optional SchemeObserver / DemandObserver /
// DemandIssueObserver events go only to members implementing those
// interfaces, still in attach order.
func (s *System) AttachObserver(o Observer) {
	s.observers = append(s.observers, o)
	if so, ok := o.(SchemeObserver); ok {
		s.schemeObs = append(s.schemeObs, so)
	}
	if do, ok := o.(DemandObserver); ok {
		s.demandObs = append(s.demandObs, do)
	}
	if io, ok := o.(DemandIssueObserver); ok {
		s.issueObs = append(s.issueObs, io)
	}
}
