package noc

// Stats accumulates per-network traffic statistics. Latencies are recorded
// in this network's clock cycles (Config.ClockGHz).
type Stats struct {
	cycles int64

	Injected  [NumClasses]int64
	Delivered [NumClasses]int64
	Bits      [NumClasses]int64 // serialized bits injected, for §2.2's share

	QueueCycles [NumClasses]int64 // source-side queuing latency sum
	NetCycles   [NumClasses]int64 // in-network latency sum

	// Activity counters for the DSENT-style energy model.
	FlitHops        int64 // switch traversals (buffer read+write, xbar, arb)
	LinkFlits       int64 // on-chip link traversals
	EjectFlits      int64 // ejection-port traversals
	InterposerFlits int64 // flits over interposer wires (EIR injection links)
}

func (s *Stats) init() { *s = Stats{} }

func (s *Stats) packetInjected(p *Packet, flitBytes int) {
	c := ClassOf(p.Type)
	s.Injected[c]++
	s.Bits[c] += int64(p.Bits(flitBytes))
}

func (s *Stats) packetDelivered(p *Packet, cfg Config) {
	c := ClassOf(p.Type)
	s.Delivered[c]++
	s.QueueCycles[c] += p.QueueLatency()
	s.NetCycles[c] += p.NetworkLatency()
}

// Cycles returns the number of simulated cycles.
func (s *Stats) Cycles() int64 { return s.cycles }

// AvgQueueCycles returns the mean source-queuing latency of a class.
func (s *Stats) AvgQueueCycles(c Class) float64 {
	if s.Delivered[c] == 0 {
		return 0
	}
	return float64(s.QueueCycles[c]) / float64(s.Delivered[c])
}

// AvgNetCycles returns the mean in-network latency of a class.
func (s *Stats) AvgNetCycles(c Class) float64 {
	if s.Delivered[c] == 0 {
		return 0
	}
	return float64(s.NetCycles[c]) / float64(s.Delivered[c])
}

// TotalDelivered returns delivered packets across classes.
func (s *Stats) TotalDelivered() int64 {
	return s.Delivered[Request] + s.Delivered[Reply]
}
