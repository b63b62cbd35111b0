package circuit

// StageKind classifies how a pipeline stage of the cache access path
// responds to process variation.
type StageKind int

const (
	// GateStage is dominated by transistor switching (decoder logic,
	// sense amplifier, output latch): delay scales with GateDelayFactor.
	GateStage StageKind = iota
	// WireStage is dominated by distributed interconnect RC (address bus,
	// global word line routing, data bus): delay scales with RCFactor.
	WireStage
	// DrivenWireStage is a driver charging a wire: half the delay is the
	// driver (gate-limited), half the wire (RC-limited). Local word lines
	// behave this way.
	DrivenWireStage
	// BitlineStage is the cell discharging the bitline: delay scales with
	// the bitline capacitance (wire + drain diffusion) divided by the
	// cell drive current.
	BitlineStage
)

// Stage is one component of an SRAM access critical path with its
// nominal (no-variation) delay in picoseconds.
type Stage struct {
	Name      string
	Kind      StageKind
	NominalPS float64
}

// Eval returns the stage delay in picoseconds under the given device and
// wire process state.
func (s Stage) Eval(t Tech, d Device, w Wire) float64 {
	switch s.Kind {
	case GateStage:
		return s.NominalPS * d.GateDelayFactor(t)
	case WireStage:
		return s.NominalPS * w.RCFactor(t)
	case DrivenWireStage:
		return s.NominalPS * (0.5*d.GateDelayFactor(t) + 0.5*w.RCFactor(t))
	case BitlineStage:
		capf := t.DiffusionFrac*(1+d.DLeff) + (1-t.DiffusionFrac)*w.CapFactor(t)
		return s.NominalPS * capf / d.DriveFactor(t)
	default:
		panic("circuit: unknown stage kind")
	}
}
