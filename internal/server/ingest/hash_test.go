package ingest

import (
	"bytes"
	"strings"
	"testing"

	"rio/internal/stf"
)

// goldenFlow is a small flow whose canonical form exercises one corner of
// Hash's encoding.
func goldenFlow(name string, numData int, build func(g *stf.Graph)) *stf.Graph {
	g := stf.NewGraph(name, numData)
	build(g)
	return g
}

// TestHashGolden pins Hash's digests: a flow's ID is what clients and
// logs refer to it by, so a change to the canonical form, or to how it is
// encoded, must not change the ID of any flow. Each case covers one corner
// of the encoding: negative values (zigzag varints), values of 64 and more
// (varints of two bytes or more), idempotent accesses, a task without
// accesses, a name longer than 127 bytes (a two-byte length), and each
// spelling of the mapping.
func TestHashGolden(t *testing.T) {
	plain := func() *stf.Graph {
		return goldenFlow("plain", 3, func(g *stf.Graph) {
			g.Add(1, 2, 3, 4, stf.W(0), stf.R(1))
			g.Add(0, 0, 0, 0, stf.RW(0), stf.Red(2))
		})
	}
	for _, tc := range []struct {
		name string
		g    *stf.Graph
		ms   *MappingSpec
		want string
	}{
		{"plain", plain(), nil, "3c741d3f906c3999273bff32793cd890"},
		{"negative coordinates", goldenFlow("neg", 2, func(g *stf.Graph) {
			g.Add(-1, -2, -64, -65, stf.R(0))
			g.Add(0, -1<<40, 7, -3, stf.W(1))
		}), nil, "65a1381304298b343de1f32ba0c1144b"},
		{"wide values", goldenFlow("wide", 70000, func(g *stf.Graph) {
			g.Add(64, 127, 128, 8191, stf.RW(64), stf.R(69999))
			g.Add(1<<31, 1<<40, 300, 16384, stf.W(8192))
		}), nil, "99c9c2dc5864f6f3d3361996673b1caf"},
		{"idempotent", goldenFlow("idem", 2, func(g *stf.Graph) {
			g.Add(0, 0, 0, 0, stf.Access{Data: 0, Mode: stf.WriteOnly, Idempotent: true}, stf.R(1))
			g.Add(0, 1, 0, 0, stf.Access{Data: 1, Mode: stf.ReadWrite, Idempotent: true})
		}), nil, "8e26e429518c88ed34e9676b8d71400d"},
		{"no accesses", goldenFlow("bare", 1, func(g *stf.Graph) {
			g.Add(3, 1, 1, 1)
			g.Add(0, 0, 0, 0, stf.W(0))
			g.Add(2, 0, 0, 0)
		}), nil, "69a5d660df8019fc7e82631c311a4640"},
		{"long name", goldenFlow(strings.Repeat("long-name/", 20), 1, func(g *stf.Graph) {
			g.Add(0, 0, 0, 0, stf.W(0))
		}), nil, "a83e7ca920da49a2711cf7efbf39d6e9"},
		{"empty", goldenFlow("", 0, func(*stf.Graph) {}), nil, "25ac46c72910d537bdccd6fbab19c4b1"},
		{"mapping cyclic", plain(), &MappingSpec{Spec: "cyclic"}, "3c741d3f906c3999273bff32793cd890"},
		{"mapping block", plain(), &MappingSpec{Spec: "block"}, "0281b8419b4bbb693893521e571d291c"},
		{"mapping blockcyclic", plain(), &MappingSpec{Spec: "blockcyclic:2"}, "4ca26f730e7b991d53b93e72b0bb9059"},
		{"mapping single", plain(), &MappingSpec{Spec: "single:1"}, "53fd7e3b35158ca0c9956abab4a98557"},
		{"mapping owner2d", plain(), &MappingSpec{Spec: "owner2d"}, "1e7ecbdf4c542088dc14a1361f12f230"},
		{"mapping assign", plain(), &MappingSpec{Assign: []int{1, 0}}, "960ee7c07fb41203ad5cebe2a8d8d91b"},
	} {
		got, err := Hash(tc.g, tc.ms)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: Hash = %q, want %q", tc.name, got, tc.want)
		}
	}
	// coldBody's canonical form spans many SHA-256 blocks, and Parse
	// hashes it on its own path.
	sub, err := Parse(bytes.NewReader(coldBody(t)), 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := "d31ed765eb9de597dd905387fc9e0c89"; sub.Hash != want {
		t.Errorf("cold flow: Hash = %q, want %q", sub.Hash, want)
	}
}
