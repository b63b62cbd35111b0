package circuit

import (
	"math"
	"testing"
	"testing/quick"

	"yieldcache/internal/variation"
)

func nominalDevice() Device { return Device{DLeff: 0, VtV: 0.220} }
func nominalWire() Wire     { return Wire{} }

func TestNominalFactorsAreUnity(t *testing.T) {
	tech := PTM45()
	d := nominalDevice()
	w := nominalWire()
	checks := []struct {
		name string
		got  float64
	}{
		{"DriveFactor", d.DriveFactor(tech)},
		{"GateDelayFactor", d.GateDelayFactor(tech)},
		{"LeakageFactor", d.LeakageFactor(tech)},
		{"ResFactor", w.ResFactor()},
		{"CapFactor", w.CapFactor(tech)},
		{"RCFactor", w.RCFactor(tech)},
	}
	for _, c := range checks {
		if math.Abs(c.got-1) > 1e-12 {
			t.Errorf("%s at nominal = %v, want 1", c.name, c.got)
		}
	}
}

func TestEffectiveVtDIBL(t *testing.T) {
	tech := PTM45()
	short := Device{DLeff: -0.10, VtV: 0.220}
	long := Device{DLeff: +0.10, VtV: 0.220}
	if got, want := short.EffectiveVt(tech), 0.220-0.10*tech.DIBL; math.Abs(got-want) > 1e-12 {
		t.Errorf("short-channel Vt_eff = %v, want %v", got, want)
	}
	if got, want := long.EffectiveVt(tech), 0.220+0.10*tech.DIBL; math.Abs(got-want) > 1e-12 {
		t.Errorf("long-channel Vt_eff = %v, want %v", got, want)
	}
	// Clamp: Vt_eff never reaches Vdd.
	crazy := Device{DLeff: 10, VtV: 5}
	if got := crazy.EffectiveVt(tech); got >= tech.Vdd {
		t.Errorf("Vt_eff clamp failed: %v", got)
	}
}

func TestFastDevicesLeak(t *testing.T) {
	// The inverse delay-leakage relation of Section 1: a device that is
	// faster than nominal must leak more, and vice versa.
	tech := PTM45()
	fast := Device{DLeff: -0.08, VtV: 0.200}
	slow := Device{DLeff: +0.08, VtV: 0.245}
	if fast.GateDelayFactor(tech) >= 1 {
		t.Error("fast corner is not fast")
	}
	if fast.LeakageFactor(tech) <= 1 {
		t.Error("fast corner does not leak more than nominal")
	}
	if slow.GateDelayFactor(tech) <= 1 {
		t.Error("slow corner is not slow")
	}
	if slow.LeakageFactor(tech) >= 1 {
		t.Error("slow corner does not leak less than nominal")
	}
}

func TestLeakageSpreadMatchesLiterature(t *testing.T) {
	// Section 1: small Vt variations give ~5-10x leakage differences and
	// a 10% Leff change gives multi-fold subthreshold changes. Check the
	// model spread across the 3-sigma window is in the multi-fold range.
	tech := PTM45()
	worst := Device{DLeff: -0.10, VtV: 0.220 * (1 - 0.18)} // short and low-Vt
	best := Device{DLeff: +0.10, VtV: 0.220 * (1 + 0.18)}
	hot := worst.LeakageFactor(tech)
	if hot < 5 || hot > 100 {
		t.Errorf("worst-corner leakage = %.1fx nominal, want multi-fold (5x..100x)", hot)
	}
	if ratio := hot / best.LeakageFactor(tech); ratio < 25 {
		t.Errorf("corner-to-corner leakage spread = %.1fx, want >= 25x (Section 1 cites 20x population spreads)", ratio)
	}
}

func TestVtOnlyLeakageSensitivity(t *testing.T) {
	// A 3-sigma Vt drop alone (18% of 220mV = 39.6mV) should change
	// leakage by exactly e^(0.0396/slope) — multi-fold.
	tech := PTM45()
	lo := Device{VtV: 0.220 - 0.0396}
	want := math.Exp(0.0396 / tech.SubVtSlope)
	if got := lo.LeakageFactor(tech); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("low-Vt leakage factor = %v, want %v", got, want)
	}
	if lo.LeakageFactor(tech) < 2 {
		t.Error("3-sigma Vt swing should change leakage multi-fold")
	}
}

func TestGateDelaySensitivity(t *testing.T) {
	tech := PTM45()
	// +10% Leff with DIBL: load factor (1 + dl/2) (gate cap tracks L, the
	// wire part of the load does not), drive ∝ (1/1.1)·(ov/ovNom)^alpha.
	d := Device{DLeff: 0.10, VtV: 0.220}
	got := d.GateDelayFactor(tech)
	ov := tech.Vdd - (0.220 + 0.10*tech.DIBL)
	ovNom := tech.Vdd - tech.VtNominal
	want := 1.05 * 1.1 / math.Pow(ov/ovNom, tech.Alpha)
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("GateDelayFactor(+10%% L) = %v, want %v", got, want)
	}
	if got < 1.15 || got > 1.6 {
		t.Errorf("GateDelayFactor(+10%% L) = %v, expected a 15-60%% slowdown", got)
	}
}

func TestSenseMargin(t *testing.T) {
	tech := PTM45()
	if m := SenseMargin(tech, nominalDevice()); m != 1 {
		t.Errorf("sense margin at nominal = %v, want 1", m)
	}
	fast := Device{DLeff: -0.05, VtV: 0.200}
	if m := SenseMargin(tech, fast); m != 1 {
		t.Errorf("sense margin for strong device = %v, want 1", m)
	}
	weak := Device{DLeff: 0.10, VtV: 0.250}
	m := SenseMargin(tech, weak)
	if m <= 1 {
		t.Errorf("sense margin for weak device = %v, want > 1", m)
	}
	// Monotone in weakness and capped.
	weaker := Device{DLeff: 0.10, VtV: 0.26}
	if SenseMargin(tech, weaker) < m {
		t.Error("sense margin not monotone in device weakness")
	}
	terrible := Device{DLeff: 0.10, VtV: 0.9}
	if got := SenseMargin(tech, terrible); got > tech.SenseMarginMax+1e-9 {
		t.Errorf("sense margin %v exceeds cap %v", got, tech.SenseMarginMax)
	}
}

func TestWireFactors(t *testing.T) {
	tech := PTM45()
	// Wider, thicker wire: lower R; capacitance rises (both ground, and
	// coupling via reduced spacing).
	w := Wire{DW: 0.2, DT: 0.2, DH: 0}
	if r := w.ResFactor(); math.Abs(r-1/(1.2*1.2)) > 1e-12 {
		t.Errorf("ResFactor = %v", r)
	}
	if c := w.CapFactor(tech); c <= 1 {
		t.Errorf("CapFactor for wide+thick wire = %v, want > 1", c)
	}
	// Thinner dielectric raises ground capacitance.
	thin := Wire{DH: -0.3}
	if c := thin.CapFactor(tech); c <= 1 {
		t.Errorf("CapFactor for thin ILD = %v, want > 1", c)
	}
	// Narrow line: higher R, lower coupling (more spacing).
	narrow := Wire{DW: -0.3}
	if r := narrow.ResFactor(); r <= 1 {
		t.Errorf("ResFactor for narrow line = %v, want > 1", r)
	}
}

func TestCapFactorSpacingGuard(t *testing.T) {
	tech := PTM45()
	w := Wire{DW: 0.999}
	if c := w.CapFactor(tech); math.IsInf(c, 0) || math.IsNaN(c) || c < 0 {
		t.Errorf("CapFactor near closed spacing = %v", c)
	}
}

func TestStageEvalKinds(t *testing.T) {
	tech := PTM45()
	d := Device{DLeff: 0.05, VtV: 0.230}
	w := Wire{DW: 0.1, DT: -0.1, DH: 0.05}
	gate := Stage{Name: "dec", Kind: GateStage, NominalPS: 100}
	wire := Stage{Name: "bus", Kind: WireStage, NominalPS: 100}
	driven := Stage{Name: "wl", Kind: DrivenWireStage, NominalPS: 100}
	bl := Stage{Name: "bl", Kind: BitlineStage, NominalPS: 100}

	if got, want := gate.Eval(tech, d, w), 100*d.GateDelayFactor(tech); math.Abs(got-want) > 1e-9 {
		t.Errorf("gate stage = %v, want %v", got, want)
	}
	if got, want := wire.Eval(tech, d, w), 100*w.RCFactor(tech); math.Abs(got-want) > 1e-9 {
		t.Errorf("wire stage = %v, want %v", got, want)
	}
	dw := driven.Eval(tech, d, w)
	if dw <= math.Min(gate.Eval(tech, d, w), wire.Eval(tech, d, w))-1e-9 ||
		dw >= math.Max(gate.Eval(tech, d, w), wire.Eval(tech, d, w))+1e-9 {
		t.Errorf("driven-wire stage %v not between gate and wire delays", dw)
	}
	if b := bl.Eval(tech, d, w); b <= 0 {
		t.Errorf("bitline stage = %v", b)
	}
}

func TestStageEvalNominal(t *testing.T) {
	tech := PTM45()
	d, w := nominalDevice(), nominalWire()
	for _, k := range []StageKind{GateStage, WireStage, DrivenWireStage, BitlineStage} {
		s := Stage{Kind: k, NominalPS: 42}
		if got := s.Eval(tech, d, w); math.Abs(got-42) > 1e-9 {
			t.Errorf("kind %d at nominal = %v, want 42", k, got)
		}
	}
}

func TestStageEvalUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown stage kind should panic")
		}
	}()
	Stage{Kind: StageKind(99), NominalPS: 1}.Eval(PTM45(), nominalDevice(), nominalWire())
}

func TestDeviceWireFromNode(t *testing.T) {
	spec := variation.Nassif45nm()
	s := variation.NewSampler(spec, variation.PaperFactors(), 11)
	n := s.Chip(0)
	d := DeviceOf(&n.Values, &spec)
	w := WireOf(&n.Values, &spec)
	delta := func(p variation.Param) float64 { return (n.Values[p] - spec.Nominal[p]) / spec.Nominal[p] }
	if math.Abs(d.VtV-n.Values[variation.Vt]/1000) > 1e-12 {
		t.Errorf("DeviceOf Vt conversion wrong: %v", d.VtV)
	}
	if math.Abs(d.DLeff-delta(variation.Leff)) > 1e-12 {
		t.Error("DeviceOf DLeff wrong")
	}
	if math.Abs(w.DW-delta(variation.W)) > 1e-12 || math.Abs(w.DT-delta(variation.T)) > 1e-12 ||
		math.Abs(w.DH-delta(variation.H)) > 1e-12 {
		t.Error("WireOf deltas wrong")
	}
}

// Property: within the 3-sigma sampling windows, all factors are finite,
// positive, and delay is monotone in Leff (longer channel never speeds a
// gate up) while leakage is antitone in Vt.
func TestFactorSanityProperty(t *testing.T) {
	tech := PTM45()
	f := func(a, b, c, d, e int8) bool {
		dl := float64(a) / 127 * 0.10
		vt := 0.220 * (1 + float64(b)/127*0.18)
		dw := float64(c) / 127 * 0.33
		dt := float64(d) / 127 * 0.33
		dh := float64(e) / 127 * 0.35
		dev := Device{DLeff: dl, VtV: vt}
		wire := Wire{DW: dw, DT: dt, DH: dh}
		vals := []float64{
			dev.DriveFactor(tech), dev.GateDelayFactor(tech), dev.LeakageFactor(tech),
			wire.ResFactor(), wire.CapFactor(tech), wire.RCFactor(tech),
		}
		for _, v := range vals {
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		longer := Device{DLeff: dl + 0.01, VtV: vt}
		if longer.GateDelayFactor(tech) < dev.GateDelayFactor(tech) {
			return false
		}
		higherVt := Device{DLeff: dl, VtV: vt + 0.005}
		return higherVt.LeakageFactor(tech) <= dev.LeakageFactor(tech)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTechAtNodes(t *testing.T) {
	prevVdd := 10.0
	for _, n := range []int{90, 65, 45, 32} {
		tech, err := TechAt(n)
		if err != nil {
			t.Fatalf("%d nm: %v", n, err)
		}
		if tech.Vdd >= prevVdd {
			t.Errorf("Vdd should fall with scaling: %d nm has %v", n, tech.Vdd)
		}
		prevVdd = tech.Vdd
		if tech.VtNominal <= 0 || tech.VtNominal >= tech.Vdd {
			t.Errorf("%d nm: implausible Vt %v at Vdd %v", n, tech.VtNominal, tech.Vdd)
		}
	}
	if _, err := TechAt(7); err == nil {
		t.Error("unknown node should error")
	}
}
