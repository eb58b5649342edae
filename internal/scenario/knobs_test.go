package scenario

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"compilegate/internal/engine"
)

// movedFields returns the numeric fields of engine.Config (by path) whose
// values differ between a and b, each with its value in both.
func movedFields(a, b engine.Config) map[string][2]float64 {
	out := map[string][2]float64{}
	var walk func(path string, x, y reflect.Value)
	walk = func(path string, x, y reflect.Value) {
		switch x.Kind() {
		case reflect.Struct:
			for i := range x.NumField() {
				walk(path+"."+x.Type().Field(i).Name, x.Field(i), y.Field(i))
			}
		case reflect.Int, reflect.Int64:
			if x.Int() != y.Int() {
				out[path] = [2]float64{float64(x.Int()), float64(y.Int())}
			}
		case reflect.Float64:
			if x.Float() != y.Float() {
				out[path] = [2]float64{x.Float(), y.Float()}
			}
		case reflect.Bool, reflect.Pointer:
			if !reflect.DeepEqual(x.Interface(), y.Interface()) {
				out[path] = [2]float64{math.NaN(), math.NaN()}
			}
		}
	}
	walk("", reflect.ValueOf(a), reflect.ValueOf(b))
	return out
}

// TestKnobPerturbations: there are two twins per knob, one per
// direction; each moves the engine settings its knob names — exactly one,
// or both memo byte sizes — by ±10% of the value the scenario runs with,
// once, and nothing else; no two knobs move one setting; every setting
// CalibratedKnobs chose is a knob; and twin names are unique and survive
// a claim's own twin.
func TestKnobPerturbations(t *testing.T) {
	// The settings the calibration chose: those it moves off the defaults.
	calibrated := engine.DefaultConfig()
	CalibratedKnobs().Apply(&calibrated)
	chosen := movedFields(engine.DefaultConfig(), calibrated)
	if len(chosen) != 7 {
		t.Errorf("CalibratedKnobs moves %v, want six settings (both memo sizes for memo)", chosen)
	}

	twins := KnobTwins()
	if want := 2 * len(knobs); len(twins) != want {
		t.Fatalf("%d twins, want %d (two per knob)", len(twins), want)
	}
	s := registry["figure3"]
	base := s.ServerConfig()
	names, covered := map[string]bool{}, map[string]string{}
	for _, twin := range twins {
		tw := twin(s)
		if names[tw.Name] || !strings.HasPrefix(tw.Name, s.Name+"~") {
			t.Errorf("twin name %q: repeated or not %s~<knob>", tw.Name, s.Name)
		}
		names[tw.Name] = true
		f := 1.1
		if strings.HasSuffix(tw.Name, "-10%") {
			f = 0.9
		}
		moved := movedFields(base, tw.ServerConfig())
		if len(moved) != 1 && !(len(moved) == 2 && strings.Contains(tw.Name, "~memo")) {
			t.Errorf("%s moves %v, want one setting (both memo sizes for memo)", tw.Name, moved)
		}
		knob := strings.TrimSuffix(strings.TrimSuffix(tw.Name, "+10%"), "-10%")
		for path, v := range moved {
			if k, ok := covered[path]; ok && k != knob {
				t.Errorf("knobs %s and %s both move %s", k, knob, path)
			}
			// Integer settings truncate, hence the tolerance; applying the
			// twin twice would read 1.21 or 0.81.
			if r := v[1] / v[0]; math.Abs(r-f) > 1e-4 {
				t.Errorf("%s: %s %v -> %v, a factor of %v, want %v", tw.Name, path, v[0], v[1], r, f)
			}
			covered[path] = knob
		}
	}
	for path := range chosen {
		if _, ok := covered[path]; !ok {
			t.Errorf("CalibratedKnobs sets %s, which no knob perturbs", path)
		}
	}

	// On the uncalibrated machine the twins move the engine defaults; the
	// unbounded VAS stays unbounded.
	def := Sales(30)
	def.Server = engine.Config{}
	for _, twin := range twins {
		tw := twin(def)
		moved := movedFields(engine.DefaultConfig(), tw.ServerConfig())
		if strings.Contains(tw.Name, "~vas") != (len(moved) == 0) {
			t.Errorf("%s on the default machine moves %v", tw.Name, moved)
		}
	}

	// A claim's own twin of a knob twin keeps the knob in its name, so a
	// run error says which knob it ran under.
	for _, c := range Claims() {
		if c.Twin != nil && !strings.Contains(c.Twin(twins[0](c.Scenario)).Name, "~reserve+10%") {
			t.Errorf("%s: its twin drops the knob from the name: %s", c.Text, c.Twin(twins[0](c.Scenario)).Name)
		}
	}
}
