//go:build linux || darwin

package kb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The chunked ingester's parsers under cancellation and failure: LoadPair
// under a ctx cancelled mid-file returns ctx.Err() without reading on, a
// strict load that fails in an early chunk while later ones are in flight
// returns that chunk's *ParseError, and neither leaves a parser behind.
func TestIngestLifecycle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	noneLeft := func(t *testing.T, base int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after the load, %d before", runtime.NumGoroutine(), base)
			}
		}
	}

	t.Run("cancel", func(t *testing.T) {
		base := runtime.NumGoroutine()
		// E1 is a named pipe, so the test decides how much of the file
		// exists when the ctx is cancelled.
		dir := t.TempDir()
		e1, e2 := filepath.Join(dir, "e1.nt"), filepath.Join(dir, "e2.nt")
		if err := syscall.Mkfifo(e1, 0o600); err != nil {
			t.Skipf("mkfifo: %v", err)
		}
		if err := os.WriteFile(e2, []byte("<b> <p> \"x\" .\n"), 0o600); err != nil {
			t.Fatal(err)
		}
		var block bytes.Buffer
		for i := 0; block.Len() < chunkBytes; i++ {
			fmt.Fprintf(&block, "<e:%d> <p> \"value %d\" .\n", i, i)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		written := make(chan int, 1) // bytes written after the cancellation
		go func() {
			f, err := os.OpenFile(e1, os.O_WRONLY, 0)
			if err != nil {
				t.Error(err)
				written <- 0
				return
			}
			defer f.Close()
			for i := 0; i < 3; i++ {
				if _, err := f.Write(block.Bytes()); err != nil {
					t.Error(err)
				}
			}
			cancel()
			n := 0
			for i := 0; i < 100; i++ { // until the loader closes the pipe
				w, err := f.Write(block.Bytes())
				if n += w; err != nil {
					break
				}
			}
			written <- n
		}()
		_, _, _, err := LoadPair(ctx, e1, e2, "nt", false)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("LoadPair under a cancelled ctx: %v", err)
		}
		// What a parser was reading when the ctx was cancelled, and the
		// pipe's buffer, but not the rest of the file.
		if n := <-written; n > 3*chunkBytes {
			t.Errorf("the loader read %d bytes after the cancellation", n)
		}
		noneLeft(t, base)
	})

	t.Run("strict", func(t *testing.T) {
		base := runtime.NumGoroutine()
		// The first chunk is one long literal and then the malformed line:
		// its parser is still tokenizing while the other one parses the
		// chunks after it, which then wait for the merger with every chunk
		// in flight.
		var src strings.Builder
		src.WriteString(`<e:0> <p> "`)
		for i := 0; i < 200000; i++ {
			fmt.Fprintf(&src, "w%d ", i)
		}
		src.WriteString("\" .\nbroken first\n")
		for i := 1; src.Len() < 2<<20; i++ {
			if i%500 == 0 {
				src.WriteString("broken later\n")
			}
			fmt.Fprintf(&src, "<e:%d> <p> \"value %d\" .\n", i, i)
		}
		b := NewBuilder("k")
		_, err := b.ingest(context.Background(), strings.NewReader(src.String()), syntax{}, 4<<10)
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Line != 2 || pe.Text != "broken first" {
			t.Fatalf("err = %v, want a *ParseError at line 2", err)
		}
		noneLeft(t, base)
	})
}
