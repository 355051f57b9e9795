package workload

import "testing"

func TestExportedBuildersMatchInternal(t *testing.T) {
	if Conv("c", 27, 27, 96, 256, 5, 1, 2) != conv("c", 27, 27, 96, 256, 5, 1, 2) {
		t.Fatal("Conv diverges")
	}
	if FC("f", 100, 10) != fc("f", 100, 10) {
		t.Fatal("FC diverges")
	}
	if DWConv("d", 16, 16, 8, 3, 1, 1) != dwconv("d", 16, 16, 8, 3, 1, 1) {
		t.Fatal("DWConv diverges")
	}
	m := MatMul("m", 2, 3, 4)
	if m.M != 2 || m.K != 3 || m.N != 4 {
		t.Fatal("MatMul dims")
	}
}
