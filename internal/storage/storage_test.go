package storage

import (
	"errors"
	"math"
	"testing"
)

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		ClassLocal:      "local",
		ClassBlock:      "block",
		ClassNetworked:  "networked",
		ClassImageBaked: "image-baked",
		Class(99):       "Class(99)",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	good := DefaultLocal
	if err := good.Validate(); err != nil {
		t.Fatalf("default local invalid: %v", err)
	}
	bad := good
	bad.ReadBps = 0
	if bad.Validate() == nil {
		t.Fatal("zero bandwidth accepted")
	}
	bad = good
	bad.LatencySec = -1
	if bad.Validate() == nil {
		t.Fatal("negative latency accepted")
	}
	bad = good
	bad.CapacityBytes = 0
	if bad.Validate() == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestReadWriteTime(t *testing.T) {
	s := Spec{Class: ClassLocal, ReadBps: 100, WriteBps: 50, LatencySec: 1, CapacityBytes: 1e9}
	if got := float64(s.ReadTime(200)); math.Abs(got-3.0) > 1e-12 {
		t.Fatalf("ReadTime = %v, want 3.0", got)
	}
	if got := float64(s.WriteTime(200)); math.Abs(got-5.0) > 1e-12 {
		t.Fatalf("WriteTime = %v, want 5.0", got)
	}
	if s.ReadTime(0) != 0 || s.WriteTime(-5) != 0 {
		t.Fatal("zero/negative sizes should cost nothing")
	}
}

func TestTierOrderingSanity(t *testing.T) {
	// The reproduction depends on the ordering, not the absolute values.
	if !(DefaultLocal.ReadBps > DefaultBlock.ReadBps) {
		t.Fatal("local must out-read block store")
	}
	if !(DefaultNetworked.CapacityBytes > DefaultBlock.CapacityBytes &&
		DefaultBlock.CapacityBytes > DefaultLocal.CapacityBytes) {
		t.Fatal("capacity ordering broken")
	}
}

func TestVolumeCounters(t *testing.T) {
	v := MustVolume("d", Spec{Class: ClassLocal, ReadBps: 10, WriteBps: 10, CapacityBytes: 1e6})
	v.Read(100)
	v.Read(50)
	v.Write(30)
	if v.Reads != 2 || v.Writes != 1 {
		t.Fatalf("op counts = %d/%d", v.Reads, v.Writes)
	}
	if v.BytesRead != 150 || v.BytesWritten != 30 {
		t.Fatalf("byte counts = %v/%v", v.BytesRead, v.BytesWritten)
	}
}

func TestReadOnlySpec(t *testing.T) {
	if err := DefaultImageBaked.Validate(); err != nil {
		t.Fatalf("image-baked invalid: %v", err)
	}
	if !DefaultImageBaked.ReadOnly {
		t.Fatal("image-baked must be read-only")
	}
	// A read-only tier declaring a write bandwidth is contradictory.
	bad := DefaultImageBaked
	bad.WriteBps = 100e6
	if bad.Validate() == nil {
		t.Fatal("read-only spec with write bandwidth accepted")
	}
	// A writable tier still needs positive write bandwidth.
	bad = DefaultLocal
	bad.WriteBps = 0
	if bad.Validate() == nil {
		t.Fatal("writable spec without write bandwidth accepted")
	}
	// Write time on a read-only tier is zero, not a multi-year sentinel.
	if DefaultImageBaked.WriteTime(1e9) != 0 {
		t.Fatalf("WriteTime on read-only = %v, want 0", DefaultImageBaked.WriteTime(1e9))
	}
}

func TestVolumeWriteReadOnly(t *testing.T) {
	v := MustVolume("baked", DefaultImageBaked)
	if _, err := v.Write(100); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write to read-only volume: err = %v, want ErrReadOnly", err)
	}
	if v.Writes != 0 || v.BytesWritten != 0 {
		t.Fatal("rejected write was recorded")
	}
	// Reads still work.
	if v.Read(100) <= 0 {
		t.Fatal("read on read-only volume cost nothing")
	}
}

func TestVolumeFaultState(t *testing.T) {
	v := MustVolume("d", Spec{Class: ClassLocal, ReadBps: 100, WriteBps: 100, CapacityBytes: 1000})
	base := v.Read(100)

	// Degrade halves bandwidth: reads take twice as long.
	v.Degrade(0.5)
	if v.degrade >= 1 {
		t.Fatal("not degraded after Degrade")
	}
	if got := v.Read(100); math.Abs(float64(got)-2*float64(base)) > 1e-12 {
		t.Fatalf("degraded read = %v, want %v", got, 2*base)
	}
	if dur, err := v.Write(100); err != nil || math.Abs(float64(dur)-2.0) > 1e-12 {
		t.Fatalf("degraded write = %v, %v, want 2s", dur, err)
	}
	v.Restore()
	if v.degrade < 1 || v.Read(100) != base {
		t.Fatal("Restore did not restore bandwidth")
	}
	// Out-of-range factors are ignored.
	v.Degrade(0)
	v.Degrade(1.5)
	if v.degrade < 1 {
		t.Fatal("out-of-range degrade factor applied")
	}

	// Wipe counts.
	v.Wipe()
	if v.Wipes != 1 {
		t.Fatalf("after wipe: wipes=%d", v.Wipes)
	}

	// Read-error rate clamps to [0,1].
	v.SetReadErrors(0.25)
	if v.ReadErrorRate() != 0.25 {
		t.Fatalf("rate = %v", v.ReadErrorRate())
	}
	v.SetReadErrors(-1)
	if v.ReadErrorRate() != 0 {
		t.Fatal("negative rate not clamped")
	}
	v.SetReadErrors(2)
	if v.ReadErrorRate() != 1 {
		t.Fatal("rate > 1 not clamped")
	}
}

func TestNewVolumeRejectsBadSpec(t *testing.T) {
	if _, err := NewVolume("x", Spec{}); err == nil {
		t.Fatal("zero spec accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustVolume did not panic")
		}
	}()
	MustVolume("x", Spec{})
}
