package pdht_test

import (
	"fmt"
	"testing"

	"pdht"
)

func TestPublicModelSurface(t *testing.T) {
	s := pdht.DefaultScenario()
	sol, err := pdht.Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if sol.MaxRank <= 0 || sol.MaxRank > s.Keys {
		t.Errorf("MaxRank = %d", sol.MaxRank)
	}
	partial := pdht.PartialCost(sol)
	if partial >= pdht.IndexAllCost(s) || partial >= pdht.NoIndexCost(s) {
		t.Error("partial indexing should beat both baselines at 1/30")
	}
	if sav := pdht.Savings(partial, pdht.NoIndexCost(s)); sav <= 0 || sav >= 1 {
		t.Errorf("savings = %v", sav)
	}
}

func TestPublicTTLSurface(t *testing.T) {
	s := pdht.DefaultScenario()
	sol, ttl, err := pdht.SolveTTLAuto(s)
	if err != nil {
		t.Fatal(err)
	}
	if ttl.KeyTtl <= 0 {
		t.Errorf("KeyTtl = %v", ttl.KeyTtl)
	}
	if want := pdht.IdealKeyTtl(sol); ttl.KeyTtl != want {
		t.Errorf("KeyTtl %v ≠ IdealKeyTtl %v", ttl.KeyTtl, want)
	}
	explicit, err := pdht.SolveTTL(s, ttl.KeyTtl)
	if err != nil {
		t.Fatal(err)
	}
	if explicit.Cost != ttl.Cost {
		t.Errorf("explicit TTL solve differs: %v vs %v", explicit.Cost, ttl.Cost)
	}
}

func TestPublicQueryKeys(t *testing.T) {
	k1 := pdht.QueryKey(
		pdht.Predicate{Element: "title", Value: "Weather Iráklion"},
		pdht.Predicate{Element: "date", Value: "2004/03/14"},
	)
	k1Reordered := pdht.QueryKey(
		pdht.Predicate{Element: "date", Value: "2004/03/14"},
		pdht.Predicate{Element: "title", Value: "Weather Iráklion"},
	)
	if k1 != k1Reordered {
		t.Error("predicate order changed the key")
	}
	k2 := pdht.QueryKey(pdht.Predicate{Element: "size", Value: "2405"})
	if k1 == k2 {
		t.Error("distinct queries collided")
	}
}

func TestPublicCorpus(t *testing.T) {
	arts := pdht.GenerateArticles(10, 42)
	if len(arts) != 10 {
		t.Fatalf("got %d articles", len(arts))
	}
	keys := arts[0].Keys(20)
	if len(keys) != 20 {
		t.Errorf("article produced %d keys, want 20", len(keys))
	}
}

func TestPublicParseQuery(t *testing.T) {
	q, err := pdht.ParseQuery("title=Weather Iráklion AND date=2004/03/14")
	if err != nil {
		t.Fatal(err)
	}
	constructed := pdht.QueryKey(
		pdht.Predicate{Element: "title", Value: "Weather Iráklion"},
		pdht.Predicate{Element: "date", Value: "2004/03/14"},
	)
	if uint64(q.Key()) != constructed {
		t.Error("parsed and constructed keys differ")
	}
	if _, err := pdht.ParseQuery("no-equals-sign"); err == nil {
		t.Error("malformed query accepted")
	}
}

// ExampleParseQuery shows the paper's key1/key2 example end to end.
func ExampleParseQuery() {
	key1, _ := pdht.ParseQuery("title=Weather Iráklion AND date=2004/03/14")
	key2, _ := pdht.ParseQuery("size=2405")
	fmt.Println(key1.Canonical())
	fmt.Println(key2.Canonical())
	// Output:
	// date=2004/03/14&title=weather iráklion
	// size=2405
}

// ExampleSavings shows the headline numbers of Figure 2.
func ExampleSavings() {
	s := pdht.DefaultScenario()
	sol, _ := pdht.Solve(s)
	partial := pdht.PartialCost(sol)
	fmt.Printf("vs broadcast-everything: %.2f\n", pdht.Savings(partial, pdht.NoIndexCost(s)))
	fmt.Printf("vs index-everything:     %.2f\n", pdht.Savings(partial, pdht.IndexAllCost(s)))
	// Output:
	// vs broadcast-everything: 0.95
	// vs index-everything:     0.11
}

// ExampleSolve demonstrates the to-index-or-not decision of Section 2.
func ExampleSolve() {
	s := pdht.DefaultScenario() // Table 1 of the paper
	sol, err := pdht.Solve(s)
	if err != nil {
		panic(err)
	}
	fmt.Printf("broadcast search costs %.0f messages, index search %.1f\n",
		sol.CSUnstr, sol.CSIndx)
	fmt.Printf("keys worth indexing: %d of %d\n", sol.MaxRank, s.Keys)
	// Output:
	// broadcast search costs 720 messages, index search 6.8
	// keys worth indexing: 25610 of 40000
}

// ExampleSolveTTLAuto evaluates the selection algorithm at the Table 1
// scenario with the paper's expiration time, keyTtl = 1/fMin, and next to
// it the same algorithm with half that lifetime.
func ExampleSolveTTLAuto() {
	s := pdht.DefaultScenario()
	sol, ttl, err := pdht.SolveTTLAuto(s)
	if err != nil {
		panic(err)
	}
	fmt.Printf("keyTtl = 1/fMin = %.0f rounds\n", pdht.IdealKeyTtl(sol))
	fmt.Printf("predicted hit probability: %.3f\n", ttl.PIndxd)
	half, err := pdht.SolveTTL(s, ttl.KeyTtl/2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("at half the keyTtl: %.3f\n", half.PIndxd)
	// Output:
	// keyTtl = 1/fMin = 1460 rounds
	// predicted hit probability: 0.990
	// at half the keyTtl: 0.979
}
