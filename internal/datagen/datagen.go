// Package datagen produces the synthetic datasets standing in for the
// paper's benchmark inputs: Wikipedia-like text (wordcount, grep,
// inverted-index, term-vector), Netflix-like ratings (kmeans, histogram-
// movies, histogram-ratings), and TeraGen records (tera-sort). All
// generators are deterministic in their seed.
package datagen

import (
	"fmt"
	"strings"

	"flexmap/internal/randutil"
)

// vocabulary is a small word list sampled with a skewed distribution so
// word frequencies look Zipfian, as natural text does.
var vocabulary = []string{
	"the", "of", "and", "to", "in", "a", "is", "was", "for", "on",
	"data", "map", "reduce", "cluster", "task", "node", "block", "split",
	"hadoop", "yarn", "shuffle", "speculative", "heterogeneous", "elastic",
	"performance", "locality", "replication", "container", "scheduler",
	"straggler", "wikipedia", "article", "history", "science", "system",
}

// Wikipedia generates about size bytes of tab-separated documents:
// "doc-N<TAB>word word word...\n". Word choice is rank-skewed.
func Wikipedia(size int, seed int64) []byte {
	rng := randutil.New(randutil.SplitSeed(seed, "wikipedia"))
	var b strings.Builder
	b.Grow(size + 256)
	doc := 0
	for b.Len() < size {
		fmt.Fprintf(&b, "doc-%d\t", doc)
		words := 8 + rng.Intn(12)
		for i := 0; i < words; i++ {
			// Squared uniform index skews toward low ranks (frequent words).
			f := rng.Float64()
			idx := int(f * f * float64(len(vocabulary)))
			if idx >= len(vocabulary) {
				idx = len(vocabulary) - 1
			}
			b.WriteString(vocabulary[idx])
			if i < words-1 {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
		doc++
	}
	return []byte(b.String())[:size]
}

// Netflix generates about size bytes of rating records:
// "movieId,userId,rating,date\n" with ratings 1–5 and a popularity skew
// on movie IDs.
func Netflix(size int, seed int64) []byte {
	rng := randutil.New(randutil.SplitSeed(seed, "netflix"))
	var b strings.Builder
	b.Grow(size + 64)
	for b.Len() < size {
		f := rng.Float64()
		movie := int(f*f*1000) + 1
		user := rng.Intn(100000) + 1
		rating := rng.Intn(5) + 1
		fmt.Fprintf(&b, "%d,%d,%d,2005-%02d-%02d\n",
			movie, user, rating, rng.Intn(12)+1, rng.Intn(28)+1)
	}
	return []byte(b.String())[:size]
}

// TeraRecordSize is the classic TeraGen record size.
const TeraRecordSize = 100

// TeraGen generates size/100 TeraGen-style records: a 10-byte printable
// key, a tab, and payload padding, newline-terminated.
func TeraGen(size int, seed int64) []byte {
	rng := randutil.New(randutil.SplitSeed(seed, "teragen"))
	n := size / TeraRecordSize
	if n < 1 {
		n = 1
	}
	out := make([]byte, 0, n*TeraRecordSize)
	const keyAlphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	payload := strings.Repeat("x", TeraRecordSize-12) // key(10) + tab + \n
	for i := 0; i < n; i++ {
		var key [10]byte
		for k := range key {
			key[k] = keyAlphabet[rng.Intn(len(keyAlphabet))]
		}
		out = append(out, key[:]...)
		out = append(out, '\t')
		out = append(out, payload...)
		out = append(out, '\n')
	}
	return out
}
