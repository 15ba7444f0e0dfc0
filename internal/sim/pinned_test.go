package sim

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/ndp"
)

// TestTimeAndEnergyBitsPinned holds the time and energy model to the bit:
// every Record's EstimatedSeconds and EnergyJoules, as math.Float64bits,
// for every pricing path the engines have — host and near-memory
// distributed, host fetch with an edge cache, near-data offload with and
// without switch aggregation, a bounded switch buffer, a penalised (PIM)
// device, a mixed pool priced per partition, and a pool that cannot
// offload at all. REPORT.md prints four significant digits, which would
// miss a reordered float expression or a constant folded differently;
// these literals do not. A change meant to move the model replaces them
// in the same diff, with why.
func TestTimeAndEnergyBitsPinned(t *testing.T) {
	g, err := gen.Community(100, 2, 16, 0.85, gen.Config{Seed: 17, Weighted: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	const parts = 4
	a := hashAssign(t, g, parts)
	base := DefaultTopology(2, parts)
	device := func(name string) ndp.Device {
		d, err := ndp.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	bounded := base
	bounded.SwitchBufferEntries = 16
	upmem := base
	upmem.MemDevice = device("UPMEM")
	mixed := heteroTopology(2, parts, ndp.Device{Name: "toy-nofp", Class: ndp.PNM, FP: ndp.None, IntMulDiv: ndp.Full})
	inc := base
	inc.MemDevice = device("SwitchML")

	cases := []struct {
		name   string
		engine Engine
		cache  int64       // the execution's host edge cache (ExecConfig.CacheBytes)
		want   [][2]uint64 // per record: EstimatedSeconds, EnergyJoules bits
	}{
		{"distributed", &Distributed{Topo: base}, 0, [][2]uint64{
			{0x3ed0d863dd8bbe0f, 0x3e70f81a0a71b8ca},
			{0x3ed125c0d19059c1, 0x3e983e504ad8afc7},
			{0x3ed1812b947b7323, 0x3eaa0250e5653cf8},
			{0x3ed183dac657b935, 0x3eabcc54d0e9715b},
			{0x3ed160664e68f0bb, 0x3ea62151cec7ab52},
			{0x3ed13f664704bfe4, 0x3ea12b2b3bead532},
			{0x3ed11cc51f0ed215, 0x3e98535be63b78f4},
			{0x3ed0f13e9a0d3d9b, 0x3e86e3e1af39965d},
			{0x3ed0d79d9c16d144, 0x3e71343b341e40b9},
			{0x3ed0cc8f65e82a09, 0x3e544711bbda0050},
		}},
		{"distributed-ndp", &DistributedNDP{Topo: base}, 0, [][2]uint64{
			{0x3ed0d74d23a3a760, 0x3e70878a0a412d02},
			{0x3ed11eb7d18d5105, 0x3e96bf2b0f1fc04b},
			{0x3ed170560b4f9e3b, 0x3ea6f3ca4689e762},
			{0x3ed16a248c6503f2, 0x3ea719dc58bb74bf},
			{0x3ed14b35dd9cc116, 0x3ea290e9f4a0a0c2},
			{0x3ed131aa0a0b042b, 0x3e9d802675bfa8d0},
			{0x3ed11323776c30ca, 0x3e9502cf9608964e},
			{0x3ed0ec8def608d1d, 0x3e84562737f8432e},
			{0x3ed0d5702846a3e5, 0x3e6ef547a1d34c67},
			{0x3ed0cb4dca79e879, 0x3e523f8cceab2c68},
		}},
		{"disaggregated-cache", &Disaggregated{Topo: base}, 2048, [][2]uint64{
			{0x3ed0cc18db62ce96, 0x3e45bf608b693a73},
			{0x3ed0fd09cabede82, 0x3e7da9b5559f9206},
			{0x3ed1b014feea543b, 0x3e9f629401086029},
			{0x3ed23227b495c486, 0x3ea8573975b61b4a},
			{0x3ed1e6abc9de8d14, 0x3ea3214f89582ee0},
			{0x3ed18772edb6bbe4, 0x3e99b5f7fa359eb5},
			{0x3ed1413eb94c3010, 0x3e90a33bb0e7884a},
			{0x3ed0fd31a636a72e, 0x3e7ce015dc510dcd},
			{0x3ed0db0d38120c3c, 0x3e6520c5c7789880},
			{0x3ed0cce2e469b622, 0x3e4917e58d2aa5e7},
		}},
		{"disaggregated-ndp", &DisaggregatedNDP{Topo: base}, 0, [][2]uint64{
			{0x3ed0d96d77584d5d, 0x3e62a0b8288ab002},
			{0x3ed13edfee4b7a62, 0x3e8f3bf5320ac95e},
			{0x3ed1e20f301cf3ee, 0x3ea34235cbaa837d},
			{0x3ed201699f716e03, 0x3ea606fb9a390755},
			{0x3ed1daac07273526, 0x3ea2fedd7407ffb9},
			{0x3ed1aa2c7ae687d5, 0x3e9edffe73d73f19},
			{0x3ed17956587e52b5, 0x3e98047811dc2f0e},
			{0x3ed125a86c567b9e, 0x3e88f9a03187de66},
			{0x3ed0ea8a55348c0c, 0x3e729249cc9eb858},
			{0x3ed0d1f5b0baab34, 0x3e565f14c8f1ef44},
		}},
		{"disaggregated-ndp+inc", &DisaggregatedNDP{Topo: base, InNetworkAggregation: true}, 0, [][2]uint64{
			{0x3ed0d96d77584d5d, 0x3e62b2962071e2a4},
			{0x3ed119143a7ff1be, 0x3e85f0e3b6f14c2c},
			{0x3ed14c4038ece8f2, 0x3e94012e7b07d0e9},
			{0x3ed1430f4479ab34, 0x3e948370781fcc60},
			{0x3ed132ff180ff788, 0x3e9143364cd641d2},
			{0x3ed1242bb7a08c18, 0x3e8ca420ada448d1},
			{0x3ed115b1ad08a4a6, 0x3e877293dbd9e74a},
			{0x3ed0ffdcb88af2f9, 0x3e7f66bc54cf6783},
			{0x3ed0e19b5940f2bc, 0x3e6c78effd46a398},
			{0x3ed0d1f5b0baab34, 0x3e56885018b8b2e0},
		}},
		{"disaggregated-ndp+inc-buffer16", &DisaggregatedNDP{Topo: bounded, InNetworkAggregation: true}, 0, [][2]uint64{
			{0x3ed0d96d77584d5d, 0x3e62b2962071e2a4},
			{0x3ed135410658d546, 0x3e8cfc16ad2a2e64},
			{0x3ed1ca01ec3e5728, 0x3ea1dcb2729acbe8},
			{0x3ed1e32d0f9b6719, 0x3ea44394ee2ba476},
			{0x3ed1bfdf134c6934, 0x3ea16f9ada323baf},
			{0x3ed1942efb050e70, 0x3e9c5278c3626f74},
			{0x3ed168d8389537aa, 0x3e961e1b5f7f5430},
			{0x3ed11d695c61ee18, 0x3e87168720267b8c},
			{0x3ed0e66acd3a454a, 0x3e70a431fb4c98cc},
			{0x3ed0d1f5b0baab34, 0x3e56885018b8b2e0},
		}},
		{"disaggregated-ndp-upmem", &DisaggregatedNDP{Topo: upmem}, 0, [][2]uint64{
			{0x3ed0db1a4695fa1c, 0x3e630bebf7f5dfcd},
			{0x3ed149b2b33c7422, 0x3e90546dda081fdd},
			{0x3ed1fbf53e390066, 0x3ea4b6d76ca53e88},
			{0x3ed228f81ffa84e0, 0x3ea843967e1e2a4b},
			{0x3ed1fb455239f49c, 0x3ea4b1580cace02e},
			{0x3ed1bf4e13c9327c, 0x3ea096cdb45262f9},
			{0x3ed18827a929c102, 0x3e99988a1fab45a6},
			{0x3ed12cdf9a4c7772, 0x3e8a30eccbd7bcdd},
			{0x3ed0ede3f3afe58b, 0x3e736491e37ad12a},
			{0x3ed0d3e47877fc5f, 0x3e575678a79a84ef},
		}},
		{"disaggregated-ndp-mixed-pool", &DisaggregatedNDP{Topo: mixed}, 0, [][2]uint64{
			{0x3ed0d3ee175fef04, 0x3e5a42b06058adbb},
			{0x3ed123630e71a2a4, 0x3e88ce2056f773de},
			{0x3ed1d450c0300810, 0x3ea2c314405afdb0},
			{0x3ed22c04c7364936, 0x3ea940fdadbe6728},
			{0x3ed1ea7a3b114467, 0x3ea46b97fb0db323},
			{0x3ed19f2dbaf5cb22, 0x3e9e1ac4e0e9065b},
			{0x3ed168804295b1c4, 0x3e965a947f2b6204},
			{0x3ed113ca746f48fc, 0x3e84ca4a03570c49},
			{0x3ed0e612d73abf64, 0x3e707157c3933014},
			{0x3ed0d1f5b0baab34, 0x3e565f14c8f1ef43},
		}},
		{"disaggregated-ndp-switchml-pool", &DisaggregatedNDP{Topo: inc}, 0, [][2]uint64{
			{0x3ed0cc18db62ce96, 0x3e45bf608b693a73},
			{0x3ed10c8008a967dd, 0x3e821dfb06402c4a},
			{0x3ed1e29740a4370e, 0x3ea260357e643ce4},
			{0x3ed27aa7763120be, 0x3eac3136252a34a5},
			{0x3ed2119ee7a2ee2c, 0x3ea5696d1e2d575f},
			{0x3ed1a7674b8a604a, 0x3e9d1b21f24be32a},
			{0x3ed160db21204e90, 0x3e93ff0d1f712c5a},
			{0x3ed10259102f7fa2, 0x3e7f10d61946a553},
			{0x3ed0db0d38120c3c, 0x3e6520c5c7789880},
			{0x3ed0cce2e469b622, 0x3e4917e58d2aa5e7},
		}},
	}
	for _, c := range cases {
		run, err := execPrice(c.engine, g, kernels.NewSSSP(0), ExecConfig{Assign: a, CacheBytes: c.cache})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := recordBits(run.Records)
		if len(got) != len(c.want) {
			t.Errorf("%s: %d records, want %d", c.name, len(got), len(c.want))
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s it%d: bits (seconds, joules) = %#x, want %#x", c.name, i, got[i], c.want[i])
			}
		}
	}
}

func recordBits(recs []Record) [][2]uint64 {
	out := make([][2]uint64, len(recs))
	for i, r := range recs {
		out[i] = [2]uint64{math.Float64bits(r.EstimatedSeconds), math.Float64bits(r.EnergyJoules)}
	}
	return out
}
