// Package ndp models the near-data-processing hardware classes the paper
// surveys in Table I — Processing Near-Memory (PNM), Processing In-Memory
// (PIM), and In-Network Computing (INC) — as capability records the
// simulator consults. The offload policies (internal/runtime) never read
// a device: they decide from the simulator's per-iteration records, and
// the simulator gates and prices their decisions by the device.
//
// The paper uses these characteristics in two ways, and so does this
// package: (1) high internal bandwidth makes the traversal phase scale
// with memory capacity (memory-capacity-proportional bandwidth), captured
// by the bandwidth fields feeding the simulator's time model; (2) the
// compute capabilities gate which kernels a device can execute, captured
// by Supports.
package ndp

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/kernels"
)

// Class is a hardware class from Table I.
type Class int

// Hardware classes.
const (
	// PNM devices sit next to the memory stack (CXL-CMS, CXL-PNM):
	// high internal bandwidth, real vector/FP units.
	PNM Class = iota
	// PIM devices embed many simple cores in the memory arrays (UPMEM):
	// very high aggregate bandwidth, primitive FP, weak integer mul/div.
	PIM
	// INC devices are programmable switch ASICs (SwitchML, SHARP):
	// aggregation/filtering only, on data in flight.
	INC
)

// String returns the class acronym.
func (c Class) String() string {
	switch c {
	case PNM:
		return "PNM"
	case PIM:
		return "PIM"
	case INC:
		return "INC"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Support grades a device's ability to execute an operation family.
type Support int

// Support levels.
const (
	// None: the operation cannot run on the device.
	None Support = iota
	// Primitive: supported but slow (e.g. software-emulated FP on UPMEM);
	// the simulator applies a throughput penalty.
	Primitive
	// Full: native support.
	Full
)

// String returns the support level name.
func (s Support) String() string {
	switch s {
	case None:
		return "none"
	case Primitive:
		return "primitive"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("Support(%d)", int(s))
	}
}

// Device is one hardware design point.
type Device struct {
	Name  string
	Class Class
	// InternalBandwidthGBps is the bandwidth between the device's compute
	// and its local memory (Table I: ~1100 GB/s for CXL-CMS, ~1700 GB/s
	// aggregate for UPMEM). Zero for INC devices, which hold no memory.
	InternalBandwidthGBps float64
	// ComputeUnits counts processing elements (DPUs, vector lanes, ALUs).
	ComputeUnits int
	// FP and IntMulDiv grade arithmetic support.
	FP        Support
	IntMulDiv Support
	// Target mirrors Table I's prose column.
	Target string
}

// OffloadDecision reports whether and how well a device can run a kernel.
type OffloadDecision struct {
	OK bool
	// Penalty multiplies the device's compute time (1 = native speed).
	Penalty float64
	// Reason explains a rejection or penalty.
	Reason string
}

// Supports reports whether the device can execute the traversal phase of
// the kernel named kernel, whose profile is tr, near data, and at what
// penalty: the decision reads the traits alone, and the name only
// explains it. INC devices never run traversals — they only aggregate.
func (d *Device) Supports(kernel string, tr kernels.Traits) OffloadDecision {
	if d.Class == INC {
		return OffloadDecision{OK: false, Reason: "INC devices aggregate in-flight data; they cannot run traversals"}
	}
	if tr.UsesFloatingPoint {
		switch d.FP {
		case None:
			return OffloadDecision{OK: false, Reason: fmt.Sprintf("%s needs FP, %s has none", kernel, d.Name)}
		case Primitive:
			return OffloadDecision{OK: true, Penalty: 4, Reason: "software-emulated floating point"}
		}
	}
	if tr.UsesIntMulDiv && d.IntMulDiv == None {
		return OffloadDecision{OK: false, Reason: fmt.Sprintf("%s needs integer mul/div, %s has none", kernel, d.Name)}
	}
	if tr.UsesIntMulDiv && d.IntMulDiv == Primitive {
		return OffloadDecision{OK: true, Penalty: 2, Reason: "slow integer multiply/divide"}
	}
	return OffloadDecision{OK: true, Penalty: 1}
}

// catalog is the Table I device inventory. Device holds no reference
// types, so every lookup hands out an independent copy.
var catalog = []Device{
	{
		Name:                  "CXL-CMS",
		Class:                 PNM,
		InternalBandwidthGBps: 1100,
		ComputeUnits:          16,
		FP:                    Full,
		IntMulDiv:             Full,
		Target:                "High memory bandwidth helps scale performance",
	},
	{
		Name:                  "CXL-PNM",
		Class:                 PNM,
		InternalBandwidthGBps: 512,
		ComputeUnits:          8,
		FP:                    Full,
		IntMulDiv:             Full,
		Target:                "Simple vector computations that are memory-bandwidth bound",
	},
	{
		Name:                  "UPMEM",
		Class:                 PIM,
		InternalBandwidthGBps: 1700,
		ComputeUnits:          2560,
		FP:                    Primitive,
		IntMulDiv:             Primitive,
		Target:                "Memory-bandwidth-bound workloads; FP support increases range of supported workloads",
	},
	{
		Name:         "SwitchML",
		Class:        INC,
		ComputeUnits: 64,
		FP:           Primitive,
		IntMulDiv:    None,
		Target:       "Simple filter/aggregation operations",
	},
	{
		Name:         "SHARP",
		Class:        INC,
		ComputeUnits: 32,
		FP:           Full,
		IntMulDiv:    None,
		Target:       "Aggregation of partial results from multiple sources",
	},
}

// Catalog returns the Table I device inventory.
func Catalog() []Device { return slices.Clone(catalog) }

// Names lists the catalog device names ByName accepts (matched
// case-insensitively), sorted — the same list the ByName error prints,
// so the two cannot drift apart.
func Names() []string {
	names := make([]string, 0, len(catalog))
	for _, d := range catalog {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

// ByName finds a catalog device.
func ByName(name string) (Device, error) {
	for _, d := range catalog {
		if strings.EqualFold(d.Name, name) {
			return d, nil
		}
	}
	return Device{}, fmt.Errorf("ndp: unknown device %q (available: %s)", name, strings.Join(Names(), ", "))
}

// DefaultMemoryDevice returns the device class used for memory-node NDP
// units unless configured otherwise (a PNM part with full FP support, so
// every kernel offloads at native speed).
func DefaultMemoryDevice() Device {
	return catalog[0]
}
