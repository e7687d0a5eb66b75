package model

import (
	"math"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/workload"
)

func TestAccessors(t *testing.T) {
	m := paperMultiZoneModel(t)
	if m.RoundLength() != 1 {
		t.Error("RoundLength accessor wrong")
	}
}

func TestLateBoundAtErrors(t *testing.T) {
	m := paperMultiZoneModel(t)
	if _, err := m.LateBoundAt(-1, 1); err == nil {
		t.Error("negative n should error")
	}
	if _, err := m.LateBoundAt(5, 0); err == nil {
		t.Error("zero deadline should error")
	}
	if v, err := m.LateBoundAt(0, 1); err != nil || v != 0 {
		t.Errorf("n=0: %v, %v", v, err)
	}
	// Longer deadlines give smaller bounds.
	b1, err := m.LateBoundAt(28, 1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := m.LateBoundAt(28, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if !(b2 < b1) {
		t.Errorf("bound at 1.5s (%v) not below bound at 1s (%v)", b2, b1)
	}
}

func TestInvalidAccessProfileRejected(t *testing.T) {
	if _, err := New(Config{
		Disk:        disk.QuantumViking21(),
		Sizes:       workload.PaperSizes(),
		RoundLength: 1,
		Access:      disk.AccessProfile{0.5, 0.5}, // wrong length
	}); err == nil {
		t.Error("invalid access profile should error")
	}
	if _, err := New(Config{
		Disk:        disk.QuantumViking21(),
		Sizes:       workload.PaperSizes(),
		RoundLength: 1,
		Mode:        TransferExactMixture,
		Access:      disk.AccessProfile{0.5, 0.5},
	}); err == nil {
		t.Error("invalid access profile in exact mode should error")
	}
}

func TestExactTransferPDFModes(t *testing.T) {
	// Continuous mode path.
	mc, err := New(Config{
		Disk:        disk.QuantumViking21(),
		Sizes:       workload.PaperSizes(),
		RoundLength: 1,
		RateMode:    RateContinuous,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := mc.ExactTransferPDF(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if !(v > 0) {
		t.Errorf("continuous exact PDF = %v", v)
	}
	if v0, err := mc.ExactTransferPDF(0); err != nil || v0 != 0 {
		t.Errorf("PDF(0) = %v, %v", v0, err)
	}
	// Moments-only model cannot evaluate the density.
	ms := paperSingleZoneModel(t)
	if _, err := ms.ExactTransferPDF(0.02); err != ErrNoSizeModel {
		t.Errorf("err = %v, want ErrNoSizeModel", err)
	}
	if _, err := ms.ApproximationError(0.005, 0.1, 10); err != ErrNoSizeModel {
		t.Errorf("err = %v, want ErrNoSizeModel", err)
	}
	if _, _, err := ms.ExactTransferMomentsQuad(); err != ErrNoSizeModel {
		t.Errorf("err = %v, want ErrNoSizeModel", err)
	}
	if _, err := mc.ApproximationError(0, 0.1, 10); err == nil {
		t.Error("from=0 should error")
	}
	if _, err := mc.ApproximationError(0.1, 0.05, 10); err == nil {
		t.Error("inverted range should error")
	}
	if _, err := mc.ApproximationError(0.01, 0.1, 1); err == nil {
		t.Error("n<2 should error")
	}
}

func TestStreamErrorExactValidation(t *testing.T) {
	m := paperMultiZoneModel(t)
	if _, err := m.StreamErrorExact(26, 0, 0); err == nil {
		t.Error("M=0 should error")
	}
	if _, err := m.StreamErrorExact(26, 10, 11); err == nil {
		t.Error("g>M should error")
	}
}

func TestNMaxWithEdge(t *testing.T) {
	m := paperMultiZoneModel(t)
	if _, err := m.NMaxWith(m.LateBoundChebyshev, 0); err == nil {
		t.Error("delta=0 should error")
	}
	// A bound that is NaN at N=1 behaves as overload.
	if _, err := m.NMaxWith(func(int) (float64, error) { return math.NaN(), nil }, 0.01); err != ErrOverload {
		t.Errorf("NaN bound err = %v, want ErrOverload", err)
	}
	// A bound that never exceeds delta saturates at the search cap.
	n, err := m.NMaxWith(func(int) (float64, error) { return 0, nil }, 0.01)
	if err != nil || n < 100 {
		t.Errorf("always-zero bound: %d, %v", n, err)
	}
}

func TestRoundMomentsValues(t *testing.T) {
	m := paperMultiZoneModel(t)
	mean, variance, err := m.RoundMoments(26)
	if err != nil {
		t.Fatal(err)
	}
	// SEEK(26) + 26·(ROT/2 + E[T]) ≈ 0.106 + 26·0.0258 ≈ 0.78 s.
	if mean < 0.7 || mean > 0.85 {
		t.Errorf("round mean = %v", mean)
	}
	if !(variance > 0) {
		t.Errorf("round variance = %v", variance)
	}
}
