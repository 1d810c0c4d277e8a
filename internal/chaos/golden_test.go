package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestGeneratorsGoldenBytes pins each generator's output by the SHA-256
// of its JSON: a scenario file is a repro artifact, so a refactor that
// moves one random draw, one default or one field would silently change
// what every recorded seed replays.
func TestGeneratorsGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   Scenario
		want string
	}{
		{"Generate(42)", Generate(42, GenConfig{}),
			"b5187250e2ebcf6a3d1cc116b2affdfd64fb203ebd49083e156100fe9f8f7e85"},
		{"Generate(42, Wedges 1)", Generate(42, GenConfig{Wedges: 1}),
			"c0814f51ad34d199c37153f5b4584f6773cd973c5f4eff4f34c70ad22a47d263"},
		{"GenerateAdversary(42)", GenerateAdversary(42, GenConfig{}),
			"f7f9c68db11fa8edf58d964d5ce3f74949f0dfa8337e711af7bdc7dec3f7ea8b"},
		{"GenerateMesh(42)", GenerateMesh(42, MeshGenConfig{}),
			"9a2357149e936d27ea667b88adcd51bc8cbe790c67d44c1c031eefdc3afe4a40"},
		{"GenerateMesh(1989)", GenerateMesh(1989, MeshGenConfig{}),
			"f18698fb8b3c36aa8956889386dd821466760a78a1837b4743740115b953c2fa"},
	} {
		sum := sha256.Sum256([]byte(tc.sc.JSON()))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: JSON sha256 = %s, want %s\n%s", tc.name, got, tc.want, tc.sc.JSON())
		}
	}
}
