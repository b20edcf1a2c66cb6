package equinox

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func TestScalabilityStudySmall(t *testing.T) {
	pts, err := ScalabilityStudy(context.Background(), []int{8}, []string{"hotspot"}, 150, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("%d points", len(pts))
	}
	p := pts[0]
	if p.Side != 8 || p.BaseIPC <= 0 || p.EquiNoxIPC <= 0 {
		t.Errorf("bad point: %+v", p)
	}
	if p.Improvement <= 1.0 {
		t.Errorf("EquiNox improvement %.2fx not above 1", p.Improvement)
	}
	tab := Figure12(pts)
	if !strings.Contains(tab.String(), "8x8") {
		t.Error("figure 12 table malformed")
	}
}

func TestScalabilityStudyErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := ScalabilityStudy(ctx, nil, []string{"bfs"}, 100, 1); err == nil {
		t.Error("empty sides accepted")
	}
	if _, err := ScalabilityStudy(ctx, []int{8}, nil, 100, 1); err == nil {
		t.Error("empty benches accepted")
	}
	if _, err := ScalabilityStudy(ctx, []int{8}, []string{"nope"}, 100, 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestScalabilityStudyCancellation: the study stops when its context is
// cancelled, as Ctrl-C during `equinox eval -fig12` expects.
func TestScalabilityStudyCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts, err := ScalabilityStudy(ctx, []int{8, 12, 16}, []string{"kmeans"}, 300, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if pts != nil {
		t.Errorf("cancelled study returned points %+v", pts)
	}
}
