// Command datagen emits the synthetic datasets the PUMA benchmarks
// consume (Wikipedia-like text, Netflix-like ratings, TeraGen records)
// to stdout or a file. Output is deterministic in the seed.
//
// Usage:
//
//	datagen -kind wikipedia|netflix|teragen -size-mb 64 [-seed 1] [-o file]
//
// Exit status: 0 on success, 1 on a bad -kind or -size-mb or an I/O
// error, 2 on a flag that does not parse.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"flexmap/internal/datagen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind a testable seam: it returns the process
// exit code instead of calling os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kind := fs.String("kind", "wikipedia", "dataset kind: wikipedia, netflix, teragen")
	sizeMB := fs.Int("size-mb", 64, "approximate output size in MB")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "datagen: "+format+"\n", a...)
		return 1
	}

	if *sizeMB < 0 || *sizeMB > math.MaxInt>>20 {
		return fail("-size-mb %d is not in [0, %d]", *sizeMB, math.MaxInt>>20)
	}
	size := *sizeMB << 20
	var data []byte
	switch *kind {
	case "wikipedia":
		data = datagen.Wikipedia(size, *seed)
	case "netflix":
		data = datagen.Netflix(size, *seed)
	case "teragen":
		data = datagen.TeraGen(size, *seed)
	default:
		return fail("unknown kind %q", *kind)
	}

	if *out == "" {
		if _, err := stdout.Write(data); err != nil {
			return fail("%v", err)
		}
		return 0
	}
	f, err := os.Create(*out)
	if err != nil {
		return fail("%v", err)
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fail("%v", err)
	}
	return 0
}
