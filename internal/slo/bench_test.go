package slo

import "testing"

// warmAuditor builds a 4-disk auditor with both windows fully populated,
// so what follows is the steady state: ring slots recycling in place with
// no growth anywhere.
func warmAuditor(tb testing.TB) *Auditor {
	tb.Helper()
	aud, err := New(Config{}, 4)
	if err != nil {
		tb.Fatal(err)
	}
	aud.SetBudgets(1e-3, 1e-4)
	for r := 0; r < DefaultSlowWindow+8; r++ {
		auditRound(aud)
	}
	return aud
}

// auditRound is one full audited round: four disk observations plus the
// end-of-round evaluation (window rotation, burn rates, alert state
// machines for both targets).
func auditRound(aud *Auditor) {
	for d := 0; d < 4; d++ {
		aud.ObserveDisk(d, true, false, 26, 0)
	}
	aud.EndRound()
}

// Step calls ObserveDisk once per loaded disk and EndRound once per
// round; neither may allocate once the windows are full.
func TestAuditAllocsZero(t *testing.T) {
	aud := warmAuditor(t)
	if allocs := testing.AllocsPerRun(1000, func() { aud.ObserveDisk(1, true, false, 26, 0) }); allocs != 0 {
		t.Errorf("ObserveDisk allocates %v per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { auditRound(aud) }); allocs != 0 {
		t.Errorf("an audited round allocates %v, want 0", allocs)
	}
}

func BenchmarkObserveDisk(b *testing.B) {
	aud := warmAuditor(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aud.ObserveDisk(i&3, true, false, 26, 0)
	}
}

func BenchmarkAuditRound(b *testing.B) {
	aud := warmAuditor(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		auditRound(aud)
	}
}
