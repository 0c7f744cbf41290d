package metadata

import (
	"fmt"
	"math/rand/v2"
)

// Corpus generation: a deterministic synthetic news corpus standing in for
// the paper's "2,000 unique news articles" (§4). Titles are built from small
// word pools (including stop words, so the stop-word path is exercised),
// authors are drawn from a fixed set of news services, dates walk backward
// from a fixed day, and sizes are plausible article byte counts.

var (
	genTopics = []string{
		"weather", "election", "markets", "football", "earthquake",
		"festival", "harvest", "strike", "summit", "discovery",
		"eruption", "drought", "regatta", "census", "exhibition",
	}
	genPlaces = []string{
		"iraklion", "lausanne", "geneva", "athens", "zurich",
		"chania", "bern", "patras", "basel", "rethymno",
	}
	genConnectors = []string{
		"in the", "at", "hits the", "update from", "report on the",
	}
	genAuthors = []string{
		"Crete Weather Service", "Alpine News Agency", "Hellenic Press",
		"Lakeside Daily", "Island Courier", "Mountain Observer",
		"Harbor Gazette", "Valley Tribune",
	}
	genCategories = []string{
		"weather", "politics", "economy", "sport", "science", "culture",
	}
	genBodyWords = []string{
		"officials", "residents", "measurements", "forecast", "season",
		"committee", "results", "analysis", "response", "preparations",
		"vessels", "records", "observers", "ministry", "announcement",
	}
)

// GenerateArticles returns n synthetic articles, deterministic for a given
// seed. IDs are 0..n−1.
func GenerateArticles(n int, seed uint64) []Article {
	rng := rand.New(rand.NewPCG(seed, seed^0x5bf03635))
	out := make([]Article, n)
	for i := range out {
		out[i] = generateOne(i, rng)
	}
	return out
}

func generateOne(id int, rng *rand.Rand) Article {
	topic := genTopics[rng.IntN(len(genTopics))]
	place := genPlaces[rng.IntN(len(genPlaces))]
	conn := genConnectors[rng.IntN(len(genConnectors))]
	title := fmt.Sprintf("%s %s %s", topic, conn, place)
	// Dates walk backward one day per ~80 articles so the corpus spans a
	// few weeks, like a real news archive; exact calendar validity is
	// irrelevant, only that equal strings hash equal.
	day := 28 - (id/80)%28
	month := 3 - (id/(80*28))%3
	if month < 1 {
		month = 1
	}
	body := fmt.Sprintf("the %s and the %s of %s",
		genBodyWords[rng.IntN(len(genBodyWords))],
		genBodyWords[rng.IntN(len(genBodyWords))],
		place)
	return Article{
		ID:       id,
		Title:    title,
		Author:   genAuthors[rng.IntN(len(genAuthors))],
		Date:     fmt.Sprintf("2004/%02d/%02d", month, day),
		Category: genCategories[rng.IntN(len(genCategories))],
		Size:     800 + rng.IntN(4000),
		Body:     body,
	}
}
