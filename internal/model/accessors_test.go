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

// TestNMaxWithEdge holds the one walk, through ExplainNMaxWith, to its
// stopping rules on an arbitrary quantity.
func TestNMaxWithEdge(t *testing.T) {
	m := paperMultiZoneModel(t)
	if _, err := m.ExplainNMaxWith(m.LateBoundChebyshev, 0); err == nil {
		t.Error("threshold 0 should error")
	}
	// A quantity that is NaN at N=1 is an overload.
	exp, err := m.ExplainNMaxWith(func(int) (float64, error) { return math.NaN(), nil }, 0.01)
	if err != nil || !exp.Overload || exp.NMax != 0 || exp.BindingK != 1 {
		t.Errorf("NaN quantity: %+v, %v; want an overload at k = 1", exp, err)
	}
	// A quantity that never exceeds the threshold saturates at the search cap.
	exp, err = m.ExplainNMaxWith(func(int) (float64, error) { return 0, nil }, 0.01)
	if err != nil || exp.NMax != m.maxSearchN || !exp.Capped {
		t.Errorf("always-zero quantity: %+v, %v; want the cap %d", exp, err, m.maxSearchN)
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
