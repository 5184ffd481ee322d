package main

import "testing"

func TestParseCPULine(t *testing.T) {
	steal, total, ok := parseCPULine("cpu  100 5 20 800 10 0 5 60 7 0")
	if !ok || steal != 60 || total != 1000 {
		t.Fatalf("parseCPULine = %d, %d, %v; want 60, 1000, true", steal, total, ok)
	}
	for _, line := range []string{"", "cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3", "cpu 1 2 3 4 5 6 7 x"} {
		if _, _, ok := parseCPULine(line); ok {
			t.Errorf("parseCPULine(%q) accepted", line)
		}
	}
}
