package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"fastgr/internal/core"
	"fastgr/internal/design"
	"fastgr/internal/fault"
)

// goldenDigests pins routed output across commits: per configuration, the
// SHA-256 of the emitted guides and of the JSON Report with every host
// measurement (the *Wall columns and PeakHeapBytes) zeroed. The
// determinism suites compare runs within one build; this table is what
// catches a change that moves every run of a build the same way. A
// deliberate output change regenerates it from the failure message,
// which prints the whole table as computed.
var goldenDigests = map[string]string{
	"CUGR/k=0/budget":     "guides 32007b8fe25511ae2bc6ac9fc54d190df93165826ef852271e865ce7f41236e8 report ac4c7b91a02ab7893c619f12f156a56c5a7a892350cd4e8204a861d2df42f804",
	"CUGR/k=0/fault":      "guides 6d7f6031d044d0fdf5b56d1095c2a470da758ad26e66a9e8c6b0908e36a83b70 report beaf926dd229d0ccacbcd889513e85984150af4ef69f30b1fb3ec9ab3bae1df7",
	"CUGR/k=0/plain":      "guides c449f35c1bf02a4ba46e7a02561daff4670bf0432b980549109c82345c22c09d report ae7ae6ab60694ea3e6cdca398cb38c8f19eb026c2e18104e560529ac60f0e672",
	"CUGR/k=2/budget":     "guides eee4d1c64b0ec3449acaf8df39b87ff8d1aac49dfef4e5612521d00c5a3d7813 report dae4779b6846491f65faef8511b6c5c44ee75b870c26f0cd99463fb4930e5a37",
	"CUGR/k=2/fault":      "guides 96bfe15c5674d8623b0c65eec814dfc1fffd46c937c88fc66265379d36d495d0 report 698677dd39f8e14e504ca46caccb89fcde12541d0723f6ecd1b53640fc323c02",
	"CUGR/k=2/plain":      "guides 19e7fa4fe4aa783594c50f4cb607ee0b6c113ce370aa8bae91e1a0b380cbd9a7 report 67f8507c57ba0d7d8b79b3f0e569880e2c54519fbb80abd5503f6f73e5aa7939",
	"FastGRH/k=0/budget":  "guides ebb4126f1d967fe15bd55aaaa3de4f60ed52e19157e63e4f0e5b745a3e88b27a report 53efe21e2c02abc824c7fdddbd5c02a3a0dd5a08969c393967a589e358932548",
	"FastGRH/k=0/fault":   "guides 6892cff1a869528eafa9071f75cd6da17067ddec19c6538380bb3d258314f4d9 report 657f8a6707cfe1fc218f46b01283ecf5efccf6f785fcf3e260c24cb1739f372b",
	"FastGRH/k=0/history": "guides a5012272e6846b112c3a695582a2d6c8b1c5d68e7b2da04459da79d92bf8f581 report 249d3c8770cf31cbcce57a4c7b82b5b688b8a5f7a8b5ca13c7bb7d03cc43da2d",
	"FastGRH/k=0/plain":   "guides 40b7546c6d3995e4b4bbc7be187f0a07c85c66bcf2fd21604fe16189587f9e98 report 6e58f267605d45ee91d14dc8d8cc078acf34a8130d69eb7f5915551a3ee0476c",
	"FastGRH/k=2/budget":  "guides 6b2d3374fd0eacb8fc399b3c07f08a7e09b2e1c45de20f4c13f9db8fe90bcd4c report 23ec10ceaab180cf109493ef862effc02328624ff9e295bbac435aa37887d89e",
	"FastGRH/k=2/fault":   "guides 8b2a73c0f0f4097b74949d540c50dcba5725c3ebb9b0abb8c30c6a7dc9ce2826 report 5802a6f7313b66dcbb97ef887f53b15b04940b7f0026a9dc827b5914cf5522a8",
	"FastGRH/k=2/history": "guides 5ef69e4bd08d2f42031eca1087d4c49f74522d5abbb40ccc0cc8c48a83611199 report 391093ceab72f325bf2d8606181b2c8a6a3544ce45ab214dd92ae97702492f7b",
	"FastGRH/k=2/plain":   "guides 34dc7ba2ed8be0b08209beb5fe3e9fc9d80b01664523fc18729e31beec872cdc report 4d4a042094651487d728188fbb1109a481c4af28e33925020dfe48a9807fcc15",
	"FastGRL/k=0/budget":  "guides 133307c86f083426639174618c8104bb200b11f838df2d4acfab59fff02b36ac report dd661bae13a5dbd8883634526fdf7cf6709c5b0b85ad13312d2ecebd90d6257c",
	"FastGRL/k=0/fault":   "guides a01380ab703e3d87c770efece71f8dc802876d11e0159fe2eafe442434110260 report d728e6c370e68cf57a828e1bbe4f0d1fbdafb2e6f34920787cf58ee7260da6a3",
	"FastGRL/k=0/plain":   "guides 35dae07e6debcf066f0c42b5637fb687e2e51ff1d35bd400dc7511ef3cee4686 report 479c234d86249419fd718efe301f5ca2548b8fc922b5ce91ad5294dcc7df1586",
	"FastGRL/k=2/budget":  "guides eee4d1c64b0ec3449acaf8df39b87ff8d1aac49dfef4e5612521d00c5a3d7813 report b2018911fa22088fcf6473febe18d1fc5e511f5dc29ea94b34d7824fd00ac61d",
	"FastGRL/k=2/fault":   "guides 24024d85957b48bead0dda96a1a95b5ca515df78c62d22823e54de12ca955b2b report 4ad9935ce78668e70f61e462ce1ac2b7515c85dea23a20e5656ed640ba461214",
	"FastGRL/k=2/plain":   "guides 19e7fa4fe4aa783594c50f4cb607ee0b6c113ce370aa8bae91e1a0b380cbd9a7 report f5f8bd0ac34a2ef442f66b841f333c2b206f77682fbef3b32e2ca80b5843fdd8",
}

// goldenCase is one pinned configuration on 19test9m.
type goldenCase struct {
	name string
	opt  core.Options
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, v := range []core.Variant{core.CUGR, core.FastGRL, core.FastGRH} {
		for _, k := range []int{0, 2} {
			base := func(workers int) core.Options {
				opt := core.DefaultOptions(v)
				opt.T1, opt.T2 = 4, 40
				opt.Shards = k
				opt.ExecWorkers = workers
				return opt
			}
			plain := base(2)
			faulted := base(8)
			faulted.Fault = &fault.Options{Seed: 7, Probs: map[string]float64{
				fault.SiteTask:   0.25,
				fault.SiteKernel: 0.15,
				fault.SiteSolve:  0.02,
				fault.SiteBudget: 0.05,
			}}
			budgeted := base(1)
			budgeted.MazeBudget = 5000
			cases = append(cases,
				goldenCase{fmt.Sprintf("%v/k=%d/plain", v, k), plain},
				goldenCase{fmt.Sprintf("%v/k=%d/fault", v, k), faulted},
				goldenCase{fmt.Sprintf("%v/k=%d/budget", v, k), budgeted},
			)
			if v == core.FastGRH {
				history := base(2)
				history.HistoryRRR = true
				cases = append(cases, goldenCase{fmt.Sprintf("%v/k=%d/history", v, k), history})
			}
		}
	}
	return cases
}

func reportDigest(t *testing.T, rep core.Report) string {
	t.Helper()
	rep.Times.PlanWall, rep.Times.PatternWall, rep.Times.MazeWall, rep.Times.WallTotal = 0, 0, 0, 0
	rep.PeakHeapBytes = 0
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenDigests routes every golden configuration and compares its
// guide and report digests against the table above.
func TestGoldenDigests(t *testing.T) {
	d := design.MustGenerate("19test9m", 0.0005)
	got := map[string]string{}
	for _, c := range goldenCases() {
		res, err := core.Route(d, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		gs := sha256.Sum256(guideBytes(t, res))
		got[c.name] = "guides " + hex.EncodeToString(gs[:]) + " report " + reportDigest(t, res.Report)
	}
	var mismatched []string
	for name, dg := range got {
		if goldenDigests[name] != dg {
			mismatched = append(mismatched, name)
		}
	}
	if len(mismatched) == 0 && len(got) == len(goldenDigests) {
		return
	}
	sort.Strings(mismatched)
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var table strings.Builder
	for _, name := range names {
		fmt.Fprintf(&table, "\t%q: %q,\n", name, got[name])
	}
	t.Fatalf("golden digests differ for %d of %d configurations %v; computed table:\n%s",
		len(mismatched), len(got), mismatched, table.String())
}
