// Targetpower reproduces the paper's Figure 7 finding at demo scale:
// target-list choice dominates discovery. BGP-derived targets (caida)
// saturate quickly — breadth without depth — while client-derived
// aggregates (cdn-k32) and collections (tum) keep yielding new router
// interfaces, and random targets decay.
package main

import (
	"fmt"
	"log"

	"beholder"
)

func main() {
	in := beholder.NewSmallInternet(21)

	fmt.Println("discovery power by target set (probes → unique interfaces):")
	for _, name := range []string{"caida", "cdn-k32", "tum", "random"} {
		targets, err := in.TargetSet(name, 64, "fixediid", 0.5)
		if err != nil {
			log.Fatal(err)
		}
		in.Reset()
		v := in.NewVantageAt("power", "hosting", 3)
		res, err := v.RunYarrp6(targets, beholder.YarrpOptions{Rate: 4000, MaxTTL: 16, Key: 3})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%-8s (%d targets)\n", name, len(targets))
		// Print the progress series, decimated; the drain tail after the
		// last probe repeats the final point, so print that once.
		last := res.Progress[len(res.Progress)-1]
		step := len(res.Progress)/6 + 1
		for i := 0; i < len(res.Progress); i += step {
			if p := res.Progress[i]; p.Probes != last.Probes || p.Interfaces != last.Interfaces {
				fmt.Printf("  %8d probes  %6d interfaces\n", p.Probes, p.Interfaces)
			}
		}
		fmt.Printf("  %8d probes  %6d interfaces (final; yield %.2f%%)\n",
			last.Probes, last.Interfaces, 100*float64(last.Interfaces)/float64(last.Probes+1))
	}
	fmt.Println("\nexpected: caida flattens early; cdn-k32/tum keep climbing; random decays after its first sweep.")
}
