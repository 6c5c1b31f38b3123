//go:build !race

package workloads

// race reports whether the race detector instruments this build; its
// allocations disqualify allocation-count assertions.
const race = false
