package pool

import (
	"errors"
	"testing"

	"jord/internal/mem/vmatable"
)

func TestCgetCputLifecycle(t *testing.T) {
	tab := NewTable(2)
	a, err := tab.Cget()
	if err != nil {
		t.Fatal(err)
	}
	b, err := tab.Cget()
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a == vmatable.ExecutorPD || b == vmatable.ExecutorPD {
		t.Fatalf("bad PD ids %d %d", a, b)
	}
	if tab.HasFree() {
		t.Fatal("2-PD table should be exhausted")
	}
	if _, err := tab.Cget(); err == nil {
		t.Fatal("cget on exhausted table should fault")
	}
	if err := tab.Cput(a); err != nil {
		t.Fatal(err)
	}
	if !tab.HasFree() {
		t.Fatal("cput should free capacity")
	}
	// Double free faults.
	if err := tab.Cput(a); err == nil {
		t.Fatal("double cput should fault")
	}
	// The runtime domain is not destroyable.
	if err := tab.Cput(vmatable.ExecutorPD); err == nil {
		t.Fatal("cput of vmatable.ExecutorPD should fault")
	}
	if tab.Faults() == 0 {
		t.Fatal("faults should be counted")
	}
}

func TestPmoveTransfersOwnership(t *testing.T) {
	tab := NewTable(4)
	pd1, _ := tab.Cget()
	pd2, _ := tab.Cget()
	buf := tab.NewVMA(pd1, []byte("args"), vmatable.PermRW)

	if _, err := buf.Read(pd1); err != nil {
		t.Fatalf("owner read: %v", err)
	}
	// Another PD cannot touch the buffer (the threat model's forged
	// access).
	if _, err := buf.Read(pd2); err == nil {
		t.Fatal("non-owner read should fault")
	}
	var f *Fault
	if err := buf.Write(pd2, nil); !errors.As(err, &f) {
		t.Fatalf("non-owner write should return *Fault, got %v", err)
	}

	// pmove: ownership transfers, source loses access.
	if err := buf.Pmove(pd1, pd2, vmatable.PermRW); err != nil {
		t.Fatal(err)
	}
	if _, err := buf.Read(pd2); err != nil {
		t.Fatalf("new owner read: %v", err)
	}
	if _, err := buf.Read(pd1); err == nil {
		t.Fatal("old owner should have lost access after pmove")
	}
	// A PD cannot transfer what it does not hold.
	if err := buf.Pmove(pd1, pd2, vmatable.PermRW); err == nil {
		t.Fatal("pmove from non-owner should fault")
	}
}

func TestPcopyKeepsSource(t *testing.T) {
	tab := NewTable(4)
	pd, _ := tab.Cget()
	code := tab.NewVMA(vmatable.ExecutorPD, nil, vmatable.PermRX)

	if err := code.Pcopy(vmatable.ExecutorPD, pd, vmatable.PermRX); err != nil {
		t.Fatal(err)
	}
	// Both domains hold the grant now.
	if err := code.Check(pd, vmatable.PermRX); err != nil {
		t.Fatal(err)
	}
	if err := code.Check(vmatable.ExecutorPD, vmatable.PermRX); err != nil {
		t.Fatal(err)
	}
	// A read-only grant cannot be escalated through pcopy.
	if err := code.Pcopy(pd, pd, vmatable.PermW); err == nil {
		t.Fatal("pcopy escalating RX to W should fault")
	}
	// Revocation: pmove the copy back onto the retained grant.
	if err := code.Pmove(pd, vmatable.ExecutorPD, vmatable.PermRX); err != nil {
		t.Fatal(err)
	}
	if err := code.Check(pd, vmatable.PermRX); err == nil {
		t.Fatal("pd grant should be revoked after pmove back")
	}
}
