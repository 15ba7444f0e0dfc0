package ndp

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/kernels"
)

func TestCatalogCoversTableOne(t *testing.T) {
	want := map[string]Class{
		"CXL-CMS":  PNM,
		"CXL-PNM":  PNM,
		"UPMEM":    PIM,
		"SwitchML": INC,
		"SHARP":    INC,
	}
	got := Catalog()
	if len(got) != len(want) {
		t.Fatalf("catalog has %d devices, want %d", len(got), len(want))
	}
	for _, d := range got {
		cls, ok := want[d.Name]
		if !ok {
			t.Errorf("unexpected device %q", d.Name)
			continue
		}
		if d.Class != cls {
			t.Errorf("%s class = %v, want %v", d.Name, d.Class, cls)
		}
	}
}

func TestByName(t *testing.T) {
	d, err := ByName("upmem") // case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "UPMEM" {
		t.Errorf("got %q", d.Name)
	}
	if _, err := ByName("tpu"); err == nil {
		t.Error("accepted unknown device")
	} else {
		// The error is self-serve: it quotes the bad name and lists the
		// catalog (same shape as kernels.ByName).
		msg := err.Error()
		if !strings.Contains(msg, `"tpu"`) {
			t.Errorf("error does not quote the unknown name: %q", msg)
		}
		for _, name := range Names() {
			if !strings.Contains(msg, name) {
				t.Errorf("error does not list %q: %q", name, msg)
			}
		}
	}
}

func TestPNMSupportsAllKernels(t *testing.T) {
	d, err := ByName("CXL-CMS")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kernels.All() {
		dec := d.Supports(k.Name(), k.Traits())
		if !dec.OK {
			t.Errorf("CXL-CMS rejects %s: %s", k.Name(), dec.Reason)
		}
		if dec.Penalty != 1 {
			t.Errorf("CXL-CMS penalty for %s = %v, want 1", k.Name(), dec.Penalty)
		}
	}
}

func TestPIMPenalizesFloatingPoint(t *testing.T) {
	d, err := ByName("UPMEM")
	if err != nil {
		t.Fatal(err)
	}
	pr, err := kernels.ByName("pagerank")
	if err != nil {
		t.Fatal(err)
	}
	dec := d.Supports(pr.Name(), pr.Traits())
	if !dec.OK {
		t.Fatalf("UPMEM rejected pagerank: %s", dec.Reason)
	}
	if dec.Penalty <= 1 {
		t.Errorf("UPMEM FP penalty = %v, want > 1 (primitive FP)", dec.Penalty)
	}
	bfs, err := kernels.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	dec = d.Supports(bfs.Name(), bfs.Traits())
	if !dec.OK || dec.Penalty != 1 {
		t.Errorf("UPMEM bfs decision = %+v, want native", dec)
	}
}

func TestINCCannotRunTraversals(t *testing.T) {
	for _, name := range []string{"SwitchML", "SHARP"} {
		d, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range kernels.All() {
			if dec := d.Supports(k.Name(), k.Traits()); dec.OK {
				t.Errorf("%s claims to run %s traversal", name, k.Name())
			}
		}
	}
}

func TestNoFPDeviceRejectsFPKernel(t *testing.T) {
	d := Device{Name: "toy", Class: PNM, FP: None}
	pr, err := kernels.ByName("pagerank")
	if err != nil {
		t.Fatal(err)
	}
	if dec := d.Supports(pr.Name(), pr.Traits()); dec.OK {
		t.Error("FP-less device accepted pagerank")
	}
	bfs, err := kernels.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	if dec := d.Supports(bfs.Name(), bfs.Traits()); !dec.OK {
		t.Errorf("FP-less device rejected bfs: %s", dec.Reason)
	}
}

func TestDefaults(t *testing.T) {
	if d := DefaultMemoryDevice(); d.Class != PNM {
		t.Errorf("default memory device class %v, want PNM", d.Class)
	}
}

func TestClassAndSupportStrings(t *testing.T) {
	if PNM.String() != "PNM" || PIM.String() != "PIM" || INC.String() != "INC" {
		t.Error("class names wrong")
	}
	if Class(9).String() == "" {
		t.Error("unknown class empty")
	}
	if None.String() != "none" || Primitive.String() != "primitive" || Full.String() != "full" {
		t.Error("support names wrong")
	}
	if Support(9).String() == "" {
		t.Error("unknown support empty")
	}
}

// TestCatalogNamesMatchByName pins the device registry: Names is the
// sorted catalog, every listed (and case-folded) name resolves, and the
// unknown-device error advertises exactly that list.
func TestCatalogNamesMatchByName(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	if len(names) != len(Catalog()) {
		t.Fatalf("Names() has %d entries, Catalog() has %d", len(names), len(Catalog()))
	}
	fromCatalog := make(map[string]bool)
	for _, d := range Catalog() {
		fromCatalog[d.Name] = true
	}
	for _, n := range names {
		if !fromCatalog[n] {
			t.Errorf("Names() lists %q, absent from Catalog()", n)
		}
		d, err := ByName(n)
		if err != nil {
			t.Errorf("ByName(%q): %v", n, err)
			continue
		}
		if d.Name != n {
			t.Errorf("ByName(%q) returned device %q", n, d.Name)
		}
		if lower, err := ByName(strings.ToLower(n)); err != nil || lower.Name != n {
			t.Errorf("case-insensitive lookup of %q failed: %v", n, err)
		}
	}
	_, err := ByName("no-such-device")
	if err == nil {
		t.Fatal("unknown device accepted")
	}
	if want := strings.Join(names, ", "); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not advertise the catalog list %q", err, want)
	}
}
