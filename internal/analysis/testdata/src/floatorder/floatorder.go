// Package fotest exercises floatorder: float accumulation into captured
// variables from completion-ordered closures (goroutine bodies and
// internal/parallel callbacks).
package fotest

import "flexmap/internal/parallel"

func capturedSumInJob(names []string) float64 {
	total := 0.0
	parallel.Map(2, names, func(i int) (int, error) {
		total += 1.0 // want floatorder:"completion-order"
		return i, nil
	}, nil)
	return total
}

func instantiatedCall(names []string) float64 {
	total := 0.0
	parallel.Map[float64](2, names, func(i int) (float64, error) {
		total -= 1.0 // want floatorder:"completion-order"
		return 0, nil
	}, nil)
	return total
}

func goStmtAccum(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		go func() {
			sum += x // want floatorder:"completion-order"
		}()
	}
	return sum
}

func progressAccum(names []string) float64 {
	rate := 0.0
	parallel.Map(2, names, func(i int) (int, error) { return i, nil },
		func(done, total int) {
			rate = rate + float64(done)/float64(total) // want floatorder:"completion-order"
		})
	return rate
}

// perResultReduce is the sanctioned shape: each job returns its value,
// and the caller reduces the results — which Map returns in index
// order — deterministically after the pool finishes.
func perResultReduce(names []string, xs []float64) float64 {
	results, err := parallel.Map(2, names, func(i int) (float64, error) {
		return xs[i] * 2, nil
	}, nil)
	if err != nil {
		return 0
	}
	total := 0.0
	for _, v := range results {
		total += v
	}
	return total
}

// localInsideLit accumulates into a literal-local variable, which no
// other callback shares.
func localInsideLit(names []string) ([]float64, error) {
	return parallel.Map(2, names, func(i int) (float64, error) {
		local := 0.0
		for k := 0; k < i; k++ {
			local += float64(k)
		}
		return local, nil
	}, nil)
}
