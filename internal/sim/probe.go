package sim

import "equinox/internal/noc"

// AttachProbes attaches an occupancy and link-load probe sampling every `every`
// cycles to each of the system's networks (Networks order). Call before the
// first Step.
func (s *System) AttachProbes(every int64) []*noc.Probe {
	probes := make([]*noc.Probe, len(s.nets))
	for i, n := range s.nets {
		probes[i] = n.AttachProbe(every)
	}
	return probes
}
