// Package sim simulates the four system architectures the paper compares
// (Table II) executing graph analytics kernels, and accounts the data
// movement, synchronization, and estimated time of every iteration:
//
//   - Distributed: Gluon-style master/mirror execution across
//     general-purpose servers;
//   - DistributedNDP: GraphQ-style PIM clusters (near-memory acceleration
//     inside nodes, unchanged inter-node movement);
//   - Disaggregated: FAM-Graph-style far memory (hosts fetch remote edge
//     lists, process locally);
//   - DisaggregatedNDP: this paper's proposal (traversal offloaded to
//     NDP-capable memory nodes, optional in-network aggregation).
//
// The methodology follows the paper's Section IV emulation prototype: the
// engine splits the traversal and update phases, tracks the partial-update
// buffers each memory node would produce, and counts the bytes moved
// between phases in every iteration (8 B per fetched edge entry, 16 B per
// partial vertex update, 16 B per written-back vertex property).
package sim

import (
	"fmt"
	"time"

	"repro/internal/ndp"
)

// The machine every topology shares: the paper evaluates one design
// point, so these are constants, not Topology fields. Host and link
// figures describe a couple of beefy servers on a 100 Gb/s fabric; the
// energy figures are representative, in picojoules — ~60 pJ/B to cross
// the network (serdes + switch), ~20 pJ/B host DRAM, ~8 pJ/B on-module
// NDP access, 50/20 pJ per host/NDP arithmetic op, 10 pJ per switch ALU
// op. Near-data execution saves energy two ways (the Graphicionado
// argument the paper cites): shorter data paths (ndpDRAMPJPerByte <
// hostDRAMPJPerByte, and far less traffic at linkEnergyPJPerByte) and
// simpler cores (ndpPJPerOp < hostPJPerOp). Keep the order of every
// float expression over them: constants fold exactly at compile time,
// so x*(a*b) can round differently from (x*a)*b
// (TestTimeAndEnergyBitsPinned holds the bits).
const (
	// HostGFlops is one compute node's usable arithmetic throughput.
	HostGFlops = 100
	// MemDeviceGFlops is one memory node's NDP arithmetic throughput.
	MemDeviceGFlops = 25

	// hostMemBWGBps is one compute node's local memory bandwidth; the
	// traversal phase is bound by it when executed on the host.
	hostMemBWGBps = 100
	// networkGBps is the bandwidth of one network link (100 Gb/s).
	networkGBps = 12.5
	// networkLatency is the one-way latency per synchronization round.
	networkLatency = 2 * time.Microsecond

	linkEnergyPJPerByte = 60
	hostDRAMPJPerByte   = 20
	ndpDRAMPJPerByte    = 8
	hostPJPerOp         = 50
	ndpPJPerOp          = 20
	switchPJPerOp       = 10
)

// Topology describes the simulated cluster: node counts, the NDP devices
// at the memory pool, and the switch's aggregation buffer. Everything
// else about the machine is a package constant.
type Topology struct {
	// ComputeNodes is the number of host servers running the update phase
	// (and, without NDP, the traversal too).
	ComputeNodes int
	// MemoryNodes is the number of memory-pool nodes holding edge-list
	// partitions; it equals the partition count in disaggregated runs. In
	// distributed runs the same count is the number of servers.
	MemoryNodes int

	// MemDevice is the NDP unit attached to each memory node.
	MemDevice ndp.Device
	// MemDevices optionally assigns a distinct device per memory node
	// (heterogeneous pools mixing, say, CXL-CMS and UPMEM modules). When
	// non-nil it must have MemoryNodes entries and overrides MemDevice.
	MemDevices []ndp.Device
	// SwitchBufferEntries bounds how many distinct destinations the
	// switch can aggregate concurrently (Section IV-C notes buffer
	// capacity as the practical limit); 0 means unlimited.
	SwitchBufferEntries int64
}

// DefaultTopology returns a topology modeled on the paper's context: a
// couple of beefy hosts and a memory pool with CXL-class NDP (Table I
// bandwidths).
func DefaultTopology(computeNodes, memoryNodes int) Topology {
	return Topology{
		ComputeNodes: computeNodes,
		MemoryNodes:  memoryNodes,
		MemDevice:    ndp.DefaultMemoryDevice(),
	}
}

// Validate checks the topology for usability.
func (t Topology) Validate() error {
	if t.ComputeNodes <= 0 {
		return fmt.Errorf("sim: ComputeNodes = %d, want > 0", t.ComputeNodes)
	}
	if t.MemoryNodes <= 0 {
		return fmt.Errorf("sim: MemoryNodes = %d, want > 0", t.MemoryNodes)
	}
	if t.SwitchBufferEntries < 0 {
		return fmt.Errorf("sim: SwitchBufferEntries = %d, want >= 0 (0 = unlimited)", t.SwitchBufferEntries)
	}
	if t.MemDevices != nil && len(t.MemDevices) != t.MemoryNodes {
		return fmt.Errorf("sim: MemDevices has %d entries, topology has %d memory nodes", len(t.MemDevices), t.MemoryNodes)
	}
	return nil
}

// DeviceFor returns the NDP device on memory node p.
func (t Topology) DeviceFor(p int) ndp.Device {
	if t.MemDevices != nil {
		return t.MemDevices[p]
	}
	return t.MemDevice
}

// linkTime returns the time to move n bytes over one network link plus a
// latency round.
func linkTime(bytes int64) float64 {
	return float64(bytes)/(networkGBps*1e9) + networkLatency.Seconds()
}

// hostComputeTime returns the time for ops arithmetic operations spread
// over the compute nodes.
func (t Topology) hostComputeTime(ops float64) float64 {
	return ops / (HostGFlops * 1e9 * float64(t.ComputeNodes))
}

// hostTraverseTime returns the time for the hosts to stream bytes from
// local memory.
func (t Topology) hostTraverseTime(bytes int64) float64 {
	return float64(bytes) / (hostMemBWGBps * 1e9 * float64(t.ComputeNodes))
}

// pico converts picojoules to joules.
func pico(pj float64) float64 { return pj * 1e-12 }

// hostExecutionEnergy models a host-side traversal: the pool serves the
// edge bytes (pool-side DRAM read), they cross the interconnect, the host
// streams them from its own memory, and host cores run the arithmetic.
func hostExecutionEnergy(movedBytes int64, hostOps float64) float64 {
	return pico(float64(movedBytes)*(ndpDRAMPJPerByte+linkEnergyPJPerByte+hostDRAMPJPerByte) +
		hostOps*hostPJPerOp)
}

// ndpExecutionEnergy models a near-data traversal: edges stream inside
// the memory module, NDP units run the edge arithmetic (penalty scales
// emulated operations), only the update bytes cross the interconnect, and
// the host runs the apply phase.
func ndpExecutionEnergy(localEdgeBytes, movedBytes int64, ndpOps, penalty, hostOps, switchOps float64) float64 {
	return pico(float64(localEdgeBytes)*ndpDRAMPJPerByte +
		ndpOps*penalty*ndpPJPerOp +
		float64(movedBytes)*(linkEnergyPJPerByte+hostDRAMPJPerByte) +
		hostOps*hostPJPerOp +
		switchOps*switchPJPerOp)
}

// memTraverseTime returns the time for the memory-node NDP units to stream
// maxPartitionBytes (the straggler partition) from their local arrays and
// run maxPartitionOps, applying the device's kernel penalty.
func (t Topology) memTraverseTime(maxPartitionBytes int64, maxPartitionOps, penalty float64) float64 {
	bw := t.MemDevice.InternalBandwidthGBps
	if bw <= 0 {
		bw = hostMemBWGBps
	}
	stream := float64(maxPartitionBytes) / (bw * 1e9)
	compute := maxPartitionOps * penalty / (MemDeviceGFlops * 1e9)
	if compute > stream {
		return compute
	}
	return stream
}
