package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestTablesGoldenBytes pins every table at small by the SHA-256 of its
// text: EXPERIMENTS.md quotes these tables, so a refactor of sim,
// adversary, secmodel or the link stage that moves one random draw or one default
// fails here instead of silently changing the numbers.
func TestTablesGoldenBytes(t *testing.T) {
	want := map[string]string{
		"E1":  "6ee83d89d0f32a37771b414f16d0dde92171f415739303191f76084b2402a173",
		"E2":  "bfafdb736a48773f11cd756ad68411fd6b0c5d4779f4a15e779f4c6489b0ee38",
		"E3":  "91dee5020b2f5e5e8eabad8810c24dbeeda47e2f283ed2e1af5ecd75bb574057",
		"E4":  "5116b730440758e55ed8488b43807c12d92916fcff496ee157e985a39c363437",
		"E5":  "75d9ed8d4a8ced48b703f987a35f26e2e185944306ce7c8a9af29455fa9edf19",
		"E6":  "39aa69f40688a10834152f525bd13f5523d800dc8c892d86c6619f775f0f02a1",
		"E7":  "82ee994133a27df94b3821cd00e2c5ac57084b9fa6f242743aa170397fea228a",
		"E8":  "bc9d32dde50dd981af0a1235fe06d2f99f58ae017717a29b1f5cff9eb0340b12",
		"E9":  "dfeb77da0be0fc34e86da896c47f004d65efa3064e3aa2ac4537cb74bd6c8cf1",
		"E10": "d613f1717359b87cf8889f6de1b29807cfb5672ece4664a85df1d8e4e4c9e07a",
	}
	for _, e := range All() {
		out := e.Run(small).String()
		sum := sha256.Sum256([]byte(out))
		if got := hex.EncodeToString(sum[:]); got != want[e.ID] {
			t.Errorf("%s: table sha256 = %s, want %s\n%s", e.ID, got, want[e.ID], out)
		}
	}
}
