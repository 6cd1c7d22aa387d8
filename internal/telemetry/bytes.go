package telemetry

// BytesTotalName is the shared data-plane byte counter family. Every
// component that moves payload bytes (chirp client/server, xrootd,
// squid, wq staging) registers its series here, so one query shows
// where the bytes flow: lobster_bytes_total{component,direction,site}.
const BytesTotalName = "lobster_bytes_total"

// Directions for the lobster_bytes_total counters, from the component's
// point of view: "in" is payload received, "out" is payload sent.
const (
	DirIn  = "in"
	DirOut = "out"
)

// BytesVec registers (or finds) the shared family. The site label names
// the remote storage site the bytes crossed to or from (the Fig 9
// accounting axis); components that don't know their peer's site leave
// it empty, which Prometheus treats as the label being absent. A server
// publishes the byte counters its Stats reports into it.
func (r *Registry) BytesVec() *CounterVec {
	return r.CounterVec(BytesTotalName,
		"Payload bytes moved by the data plane, by component, direction and remote site.",
		"component", "direction", "site")
}

// Bytes returns the lobster_bytes_total series for one component and
// direction, with no site attribution. The nil registry returns the nil
// (no-op) counter, so call sites can hold the result unconditionally on
// hot paths.
func (r *Registry) Bytes(component, direction string) *Counter {
	if r == nil {
		return nil
	}
	return r.BytesVec().With(component, direction, "")
}

// SiteBytes is Bytes with the remote site stamped, feeding the per-site
// bandwidth accounting the replica selector and the Figure 9 dashboard
// consume. Resolve once per site on hot paths; the family's cardinality
// bound caps a runaway site-label explosion at the registry default.
func (r *Registry) SiteBytes(component, direction, site string) *Counter {
	if r == nil {
		return nil
	}
	return r.BytesVec().With(component, direction, site)
}
