package equinox

import (
	"strings"
	"testing"

	"equinox/internal/sim"
)

func TestTableMarkdown(t *testing.T) {
	tab := Table{
		Title:  "Test | table",
		Header: []string{"scheme", "a|b"},
		Rows:   [][]string{{"x|y", "1.000"}, {"z", ""}},
	}
	want := "## Test \\| table\n\n" +
		"| scheme | a\\|b |\n" +
		"|---|---|\n" +
		"| x\\|y | 1.000 |\n" +
		"| z |  |\n\n"
	if got := tab.Markdown(); got != want {
		t.Errorf("got\n%q\nwant\n%q", got, want)
	}
}

func TestReduction(t *testing.T) {
	for _, tc := range []struct {
		a, b float64
		want string
	}{{0.5, 1, "-50.0%"}, {1.1, 1, "+10.0%"}, {1, 0, "n/a"}} {
		if got := reduction(tc.a, tc.b); got != tc.want {
			t.Errorf("reduction(%v, %v) = %s, want %s", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestReportNotes checks that each headline note appears only when both of
// its schemes ran, and that the notes are numbered from 1 in order.
func TestReportNotes(t *testing.T) {
	res := map[sim.SchemeKind]sim.Result{
		sim.SingleBase:   {ExecNS: 100, AreaMM2: 8, ReplyBitShare: 0.7},
		sim.SeparateBase: {ExecNS: 80, AreaMM2: 16, ReplyBitShare: 0.75},
		sim.EquiNox:      {ExecNS: 50, AreaMM2: 17, ReplyBitShare: 0.8},
	}
	report := func(schemes ...sim.SchemeKind) string {
		ev := &Evaluation{Schemes: schemes, Benches: []string{"b"},
			Results: map[sim.SchemeKind]map[string]sim.Result{}}
		for _, s := range schemes {
			ev.Results[s] = map[string]sim.Result{"b": res[s]}
		}
		var b strings.Builder
		if err := ev.WriteReport(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, tc := range []struct {
		schemes []sim.SchemeKind
		notes   []string
	}{
		{[]sim.SchemeKind{sim.SingleBase}, nil},
		{[]sim.SchemeKind{sim.SingleBase, sim.EquiNox}, []string{
			"1. EquiNox vs SingleBase execution time: -50.0% (paper: −47.7%)"}},
		{[]sim.SchemeKind{sim.SeparateBase}, []string{
			"1. Reply share of NoC bits (SeparateBase): 75.0% (paper: 72.7%)"}},
		{[]sim.SchemeKind{sim.SingleBase, sim.SeparateBase, sim.EquiNox}, []string{
			"1. EquiNox vs SingleBase execution time: -50.0% (paper: −47.7%)",
			"2. EquiNox vs SeparateBase execution time: -37.5% (paper: −23.5%)",
			"3. EquiNox vs SeparateBase EDP: n/a (paper: −32.8%)",
			"4. EquiNox area overhead vs SeparateBase: +6.2% (paper: +4.6%)",
			"5. Reply share of NoC bits (SeparateBase): 75.0% (paper: 72.7%)"}},
	} {
		s := report(tc.schemes...)
		_, notes, found := strings.Cut(s, "## Notes\n\n")
		if found != (tc.notes != nil) {
			t.Errorf("%v: notes section present = %v:\n%s", tc.schemes, found, s)
			continue
		}
		if want := strings.Join(tc.notes, "\n"); found && notes != want+"\n\n" {
			t.Errorf("%v: notes\n%s\nwant\n%s", tc.schemes, notes, want)
		}
	}
}
