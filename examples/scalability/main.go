// Scalability study (paper §6.7 / Figure 12): generate EquiNox designs for
// 8×8, 12×12, and 16×16 meshes with the same design flow, then compare the
// average IPC of EquiNox against SeparateBase at each size. The paper finds
// the improvement grows with network size (1.23× → 1.31× → 1.30×), because
// larger networks have a more serious injection bottleneck.
//
// `go run ./cmd/equinox eval -fig12` runs the same study at 300
// instructions per PE over the evaluation's benchmark subset.
package main

import (
	"context"
	"fmt"
	"log"

	"equinox"
)

func main() {
	log.SetFlags(0)
	benches := []string{"kmeans", "bfs", "streamcluster", "hotspot"}
	pts, err := equinox.ScalabilityStudy(context.Background(), []int{8, 12, 16}, benches, 400, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(equinox.Figure12(pts))
}
