// Package sim provides the simulated hardware substrate for the directory
// service reproduction: a shared-medium Ethernet with hardware multicast,
// per-node CPUs, fail-stop crashes and clean network partitions.
//
// The paper ran on Sun3/60-class machines connected by a 10 Mbit/s Ethernet
// with Wren IV SCSI disks. The simulator charges calibrated latencies for
// every frame transmission, packet handling, and (in internal/vdisk) disk
// operation, so that measured times are directly comparable to the paper's
// tables. All latency charging goes through a LatencyModel, whose Scale
// field lets tests run with zero latency and benchmarks run at full paper
// scale.
package sim

import "time"

// LatencyModel holds the calibrated costs of the simulated hardware. See
// the calibration table in ARCHITECTURE.md ("Simulated hardware:
// calibration and ablations") for where each default comes from in the
// paper's own measurements, and bench/README.md ("The traced run") for the
// end-to-end check against the paper's §4 arithmetic.
type LatencyModel struct {
	// WireDelay is the propagation plus controller delay per frame.
	WireDelay time.Duration
	// ByteTime is the transmission time per byte (10 Mbit/s Ethernet).
	ByteTime time.Duration
	// PacketCPU is the per-packet protocol-processing cost on each host
	// (a Sun3/60-class machine), charged on both send and receive.
	PacketCPU time.Duration
	// DiskOp is a random-access block write or uncached read: seek +
	// rotational latency + transfer on a Wren IV SCSI disk.
	DiskOp time.Duration
	// DiskSeqOp is a short-seek write to a fixed staging location, used
	// for the RPC service's intentions block.
	DiskSeqOp time.Duration
	// DiskBlockXfer is the media transfer time per additional 512-byte
	// block in a multi-block run (≈1.5 MB/s sustained on a Wren IV).
	DiskBlockXfer time.Duration
	// NVRAMWrite is the cost of persisting a record to battery-backed RAM.
	NVRAMWrite time.Duration
	// LookupCPU is the server-side processing cost of a read operation
	// (paper §4.2: "roughly equal to 3 msec").
	LookupCPU time.Duration
	// UpdateCPU is the server-side processing cost of a write operation
	// beyond messaging and stable storage (back-computed from the paper's
	// 13.5 ms/op group+NVRAM figure).
	UpdateCPU time.Duration

	// Scale multiplies every charged latency. 1.0 reproduces paper-scale
	// timings; 0 disables sleeping entirely (used by unit tests).
	Scale float64
}

// PaperModel returns the latency model calibrated to the paper's hardware
// (Sun3/60, 10 Mbit/s Ethernet, Wren IV SCSI disks); ARCHITECTURE.md
// ("Simulated hardware: calibration and ablations") gives the sources.
func PaperModel() *LatencyModel {
	return &LatencyModel{
		WireDelay:     10 * time.Microsecond,
		ByteTime:      800 * time.Nanosecond,
		PacketCPU:     250 * time.Microsecond,
		DiskOp:        40 * time.Millisecond,
		DiskSeqOp:     8 * time.Millisecond,
		DiskBlockXfer: 350 * time.Microsecond,
		NVRAMWrite:    50 * time.Microsecond,
		LookupCPU:     3 * time.Millisecond,
		UpdateCPU:     6 * time.Millisecond,
		Scale:         1.0,
	}
}

// ScaledPaperModel returns the paper model with all latencies scaled by s.
// Integration tests use small scales to exercise real timing interleavings
// quickly; measured durations divide out the scale.
func ScaledPaperModel(s float64) *LatencyModel {
	m := PaperModel()
	m.Scale = s
	return m
}

// FastModel returns a model with all latencies zero. Protocol logic is
// unchanged; only time disappears. Unit and integration tests use this.
func FastModel() *LatencyModel {
	return &LatencyModel{Scale: 0}
}

// Sleep blocks for d scaled by the model's Scale factor. A nil model or a
// zero scale never sleeps.
func (m *LatencyModel) Sleep(d time.Duration) {
	if m == nil || m.Scale == 0 || d <= 0 {
		return
	}
	time.Sleep(time.Duration(float64(d) * m.Scale))
}

// Timeout scales a protocol timeout. Unlike Sleep costs, timeouts never
// collapse to zero: protocols still need a small real wait to let
// asynchronous deliveries settle when running with a zero-scale model.
func (m *LatencyModel) Timeout(d time.Duration) time.Duration {
	const floor = 2 * time.Millisecond
	if m == nil || m.Scale == 0 {
		return floor
	}
	scaled := time.Duration(float64(d) * m.Scale)
	if scaled < floor {
		return floor
	}
	return scaled
}

// TxTime returns the time to put a frame of size bytes on the wire.
func (m *LatencyModel) TxTime(size int) time.Duration {
	if m == nil {
		return 0
	}
	return m.WireDelay + time.Duration(size)*m.ByteTime
}
