package runtime

import (
	"reflect"
	"sort"
	"testing"
)

// TestByNameAcceptsEveryReportedName holds the registry to the names the
// policies report about themselves: ByName(p.Name()) is p's type for
// every policy, so a run's reported policy can be fed back as a flag or
// a wire field. The short "threshold" stays an alias.
func TestByNameAcceptsEveryReportedName(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	for _, p := range policies {
		got, err := ByName(p.Name())
		if err != nil {
			t.Errorf("ByName(%q): %v", p.Name(), err)
			continue
		}
		if reflect.TypeOf(got) != reflect.TypeOf(p) {
			t.Errorf("ByName(%q) = %T, want %T", p.Name(), got, p)
		}
	}
	if got, err := ByName("threshold"); err != nil || got.Name() != (ThresholdPolicy{}).Name() {
		t.Errorf("ByName(threshold) = %v, %v; want the degree-threshold policy", got, err)
	}
	if _, err := ByName("no-such-policy"); err == nil {
		t.Error("ByName accepted an unknown policy")
	}
}
