package lint

import "go/ast"

// Serial forbids go statements in the simulation core. A goroutine there
// would make the order of virtual-time events, RNG draws or trace emits
// depend on the host's scheduler. Work that may run in parallel lives
// outside the core: the dfs write pool and the erasure decode chunks,
// whose outputs are data; exp's seed runner, whose runs are independent;
// and minimr's map and reduce lanes and the TCP cluster's RPCs, whose
// results the core collects at a virtual instant it chose. Test files
// are exempt.
var Serial = &Analyzer{
	Name:      "serial",
	Doc:       "forbid go statements in the serial simulation core",
	SkipTests: true,
	Packages: []string{
		"internal/sim",
		"internal/runtime",
		"internal/mapred",
		"internal/sched",
		"internal/netsim",
		"internal/topology",
	},
	Run: runSerial,
}

func runSerial(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "go statement in the serial simulation core; hand parallel work to an engine backend")
			}
			return true
		})
	}
}
