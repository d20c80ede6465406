package stats

import (
	"strings"
	"testing"
)

func TestFormatting(t *testing.T) {
	if got := MBps(5.301e9); got != "5301.0 MB/s" {
		t.Errorf("MBps = %q", got)
	}
	cases := map[int64]string{
		512:            "512 B",
		2048:           "2.0 KiB",
		48 << 20:       "48.0 MiB",
		int64(3) << 30: "3.0 GiB",
	}
	for n, want := range cases {
		if got := Bytes(n); got != want {
			t.Errorf("Bytes(%d) = %q want %q", n, got, want)
		}
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("procs", "MB/s")
	tb.AddRow(128, 380.0)
	tb.AddRow(1024, "11400")
	out := tb.String()
	if !strings.Contains(out, "procs") || !strings.Contains(out, "380.00") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4", len(lines))
	}
}
