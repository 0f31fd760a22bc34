// Package storage models the storage options a cloud provider exposes to a
// virtual machine, with the performance and capacity trade-offs of
// Section III-A of the paper: fast-but-small local disk, block store
// volumes, and networked (iSCSI-like) storage shared across nodes.
//
// The models are deliberately simple — fixed per-operation latency plus
// bandwidth-proportional transfer time — because that is the granularity at
// which the paper's evaluation distinguishes tiers. The netsim package
// models the network half of remote storage; this package models the media.
package storage

import (
	"errors"
	"fmt"

	"frieda/internal/sim"
)

// Class identifies a storage tier.
type Class int

const (
	// ClassLocal is instance-local ephemeral disk: fastest I/O, smallest
	// capacity, contents die with the VM.
	ClassLocal Class = iota
	// ClassBlock is a provider block-store volume (EBS-like): persistent,
	// attachable, slower than local.
	ClassBlock
	// ClassNetworked is shared network storage (iSCSI/NFS-like): largest,
	// shareable across nodes, slowest, traverses the network.
	ClassNetworked
	// ClassImageBaked marks data packaged inside the VM image itself —
	// available at boot with local-disk speed, but static (the paper notes
	// changing it means rebuilding or re-transferring the image).
	ClassImageBaked
)

// String returns the tier name.
func (c Class) String() string {
	switch c {
	case ClassLocal:
		return "local"
	case ClassBlock:
		return "block"
	case ClassNetworked:
		return "networked"
	case ClassImageBaked:
		return "image-baked"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Spec describes a tier's performance and capacity characteristics.
type Spec struct {
	Class Class
	// ReadBps and WriteBps are sustained media bandwidths in bytes/second.
	ReadBps  float64
	WriteBps float64
	// LatencySec is the fixed per-operation setup latency in seconds.
	LatencySec float64
	// CapacityBytes is the volume size.
	CapacityBytes float64
	// ReadOnly marks tiers that cannot be written at runtime (image-baked
	// data: changing it means rebuilding the image). Writes to a read-only
	// volume fail with ErrReadOnly instead of being priced at a sentinel
	// bandwidth.
	ReadOnly bool
}

// Validate reports whether the spec is internally consistent.
func (s Spec) Validate() error {
	if s.ReadBps <= 0 {
		return fmt.Errorf("storage: non-positive read bandwidth in %s spec", s.Class)
	}
	if !s.ReadOnly && s.WriteBps <= 0 {
		return fmt.Errorf("storage: non-positive write bandwidth in writable %s spec", s.Class)
	}
	if s.ReadOnly && s.WriteBps != 0 {
		return fmt.Errorf("storage: read-only %s spec declares a write bandwidth", s.Class)
	}
	if s.LatencySec < 0 {
		return fmt.Errorf("storage: negative latency in %s spec", s.Class)
	}
	if s.CapacityBytes <= 0 {
		return fmt.Errorf("storage: non-positive capacity in %s spec", s.Class)
	}
	return nil
}

// ReadTime returns the modelled time to read n bytes.
func (s Spec) ReadTime(n float64) sim.Duration {
	if n <= 0 {
		return 0
	}
	return sim.Duration(s.LatencySec + n/s.ReadBps)
}

// WriteTime returns the modelled time to write n bytes. Read-only tiers
// cost nothing here because the write itself is rejected (ErrReadOnly) at
// the volume layer.
func (s Spec) WriteTime(n float64) sim.Duration {
	if n <= 0 || s.ReadOnly {
		return 0
	}
	return sim.Duration(s.LatencySec + n/s.WriteBps)
}

// Default specs approximate 2012-era cloud offerings; absolute values do not
// matter for the reproduction, only their ordering (local > block >
// networked bandwidth; networked > block > local capacity).
var (
	// DefaultLocal: ~10 GB ephemeral disk at a few hundred MB/s.
	DefaultLocal = Spec{
		Class: ClassLocal, ReadBps: 300e6, WriteBps: 200e6,
		LatencySec: 0.0005, CapacityBytes: 10e9,
	}
	// DefaultBlock: 100 GB EBS-like volume.
	DefaultBlock = Spec{
		Class: ClassBlock, ReadBps: 120e6, WriteBps: 90e6,
		LatencySec: 0.002, CapacityBytes: 100e9,
	}
	// DefaultNetworked: 1 TB shared iSCSI target; media bandwidth here, the
	// network path is modelled by netsim on top.
	DefaultNetworked = Spec{
		Class: ClassNetworked, ReadBps: 200e6, WriteBps: 150e6,
		LatencySec: 0.005, CapacityBytes: 1e12,
	}
	// DefaultImageBaked: data shipped inside the VM image. Read-only —
	// writes fail with ErrReadOnly rather than being priced at a sentinel
	// write bandwidth.
	DefaultImageBaked = Spec{
		Class: ClassImageBaked, ReadBps: 300e6, WriteBps: 0, ReadOnly: true,
		LatencySec: 0.0005, CapacityBytes: 8e9,
	}
)

// Volume is a provisioned instance of a tier with operation counters and
// runtime fault state (slow-disk degrade, read-error rate, wipe count) that
// the DiskFaultInjector manipulates.
type Volume struct {
	spec Spec
	name string

	// degrade scales media bandwidth; 1 = healthy, lower = slow disk.
	degrade float64
	// readErrRate is the probability a read returns corrupt/failed data.
	// The volume only carries the rate; callers draw against it with their
	// own seeded RNG so the sim stays deterministic.
	readErrRate float64

	// Reads and Writes count operations, for reports.
	Reads, Writes uint64
	// BytesRead and BytesWritten accumulate volume, for reports.
	BytesRead, BytesWritten float64
	// Wipes counts volume deaths (all contents lost).
	Wipes uint64
}

// ErrReadOnly is returned when writing to a read-only tier.
var ErrReadOnly = errors.New("storage: volume is read-only")

// NewVolume provisions a volume from a spec: a batch of one (NewVolumes).
func NewVolume(name string, spec Spec) (*Volume, error) {
	vols, err := NewVolumes([]string{name}, spec)
	if err != nil {
		return nil, err
	}
	return &vols[0], nil
}

// NewVolumes provisions one volume per name from a spec, all in one
// allocation; a pointer to any of them keeps the whole batch alive.
func NewVolumes(names []string, spec Spec) ([]Volume, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	vols := make([]Volume, len(names))
	for i, name := range names {
		vols[i] = Volume{spec: spec, name: name, degrade: 1}
	}
	return vols, nil
}

// MustVolume is NewVolume for static experiment setup; it panics on error.
func MustVolume(name string, spec Spec) *Volume {
	v, err := NewVolume(name, spec)
	if err != nil {
		panic(err)
	}
	return v
}

// Read models reading n bytes and returns the duration, scaled by the
// current degrade factor.
func (v *Volume) Read(n float64) sim.Duration {
	v.Reads++
	v.BytesRead += n
	return sim.Duration(float64(v.spec.ReadTime(n)) / v.degradeFactor())
}

// Write models writing n bytes and returns the duration, or ErrReadOnly for
// read-only tiers (nothing is recorded in that case).
func (v *Volume) Write(n float64) (sim.Duration, error) {
	if v.spec.ReadOnly {
		return 0, fmt.Errorf("%w: %s (%s)", ErrReadOnly, v.name, v.spec.Class)
	}
	v.Writes++
	v.BytesWritten += n
	return sim.Duration(float64(v.spec.WriteTime(n)) / v.degradeFactor()), nil
}

func (v *Volume) degradeFactor() float64 {
	if v.degrade <= 0 || v.degrade > 1 {
		return 1
	}
	return v.degrade
}

// Wipe models a volume death: every stored byte is gone. The volume stands
// for its fresh (replacement) media from then on; cumulative counters stay.
func (v *Volume) Wipe() { v.Wipes++ }

// Degrade scales the volume's media bandwidth to factor (0 < factor < 1) —
// a slow disk, not a dead one. Out-of-range factors are ignored.
func (v *Volume) Degrade(factor float64) {
	if factor > 0 && factor < 1 {
		v.degrade = factor
	}
}

// Restore returns the volume to full bandwidth.
func (v *Volume) Restore() { v.degrade = 1 }

// SetReadErrors sets the probability that a read returns bad data. Callers
// draw against ReadErrorRate with their own seeded RNG.
func (v *Volume) SetReadErrors(rate float64) {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	v.readErrRate = rate
}

// ReadErrorRate returns the current read-error probability.
func (v *Volume) ReadErrorRate() float64 { return v.readErrRate }
