package xrootd

import (
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"

	"lobster/internal/bufpool"
)

// StripeConfig tunes FetchToStriped. The zero value means 8 MiB
// stripes over 4 concurrent streams with a 2×Streams reassembly
// window and checksum verification when the servers offer one.
type StripeConfig struct {
	// Size is the stripe length in bytes (default 8 MiB). Stripe i
	// covers [i*Size, (i+1)*Size) of the file.
	Size int64
	// Streams is how many stripes are fetched concurrently, each over
	// its own replica connection (default 4).
	Streams int
	// Window bounds how many stripes may be claimed ahead of the
	// in-order write frontier (default 2×Streams). It is the memory
	// ceiling: at most Window stripes of pooled chunks exist at once.
	Window int
	// NoVerify skips the whole-file CRC32 check against the stat
	// response. The zero value verifies whenever a replica offers a
	// checksum, which costs one IEEE CRC32 pass over the output.
	NoVerify bool
}

func (cfg *StripeConfig) size() int64 {
	if cfg.Size > 0 {
		return cfg.Size
	}
	return 8 << 20
}

func (cfg *StripeConfig) streams() int {
	if cfg.Streams > 0 {
		return cfg.Streams
	}
	return 4
}

func (cfg *StripeConfig) window(streams int) int {
	if cfg.Window >= streams {
		return cfg.Window
	}
	return 2 * streams
}

// chunk is one pooled buffer plus how much of it is filled. The buffer
// keeps its pooled length so Put accepts it back.
type chunk struct {
	buf *[]byte
	n   int
}

// stripeResult is one fetched stripe on its way to the assembler:
// chunks holds the stripe's bytes as pooled buffers (nil on error).
type stripeResult struct {
	idx    int
	chunks []chunk
	n      int64
	err    error
}

// FetchToStriped streams the file at lfn into w by splitting it into
// fixed-size stripes and fetching them concurrently from multiple
// replicas — the multi-stream WAN read that saturates a fat link where
// one TCP stream cannot. Output is byte-identical to FetchTo: a
// bounded reassembly window delivers stripes to w strictly in order
// through pooled chunk buffers.
//
// Each stream holds one replica connection and fails over per stripe:
// any error mid-stripe reopens on the next replica (bandwidth order,
// then cycling) and resumes at the exact byte where the previous
// attempt died. The fetch fails only when a stripe has exhausted every
// replica without progress. When the servers implement stat, replicas
// whose size or checksum disagree with the first-opened one are
// dropped before they can corrupt the reassembly, and the assembled
// output is CRC32-verified unless cfg.NoVerify is set.
//
// Files smaller than two stripes, or a single-replica location, fall
// back to plain FetchTo — striping cannot help there.
func (c *Client) FetchToStriped(lfn string, w io.Writer, cfg StripeConfig) (int64, error) {
	reps, err := c.Redirector.Locate(lfn)
	if err != nil {
		return 0, err
	}
	reps = c.Selector.Order(reps)
	stripeSize := cfg.size()
	streams := cfg.streams()

	// Open the reference replica: it defines the size (and checksum)
	// the other replicas must agree with.
	f0, err := c.openFirst(lfn, reps)
	if err != nil {
		return 0, err
	}
	total := f0.Size()
	wantSize, wantCRC, haveCRC, statErr := f0.Stat()
	if statErr != nil {
		haveCRC = false
	} else if haveCRC {
		total = wantSize
	}
	f0.Close()

	if total < 2*stripeSize || len(reps) < 2 || streams < 2 {
		return c.FetchTo(lfn, w)
	}

	nStripes := int((total + stripeSize - 1) / stripeSize)
	window := cfg.window(streams)

	var (
		claimMu sync.Mutex
		next    int
	)
	slots := make(chan struct{}, window)
	results := make(chan stripeResult, window)
	stop := make(chan struct{})
	var stopOnce sync.Once
	abort := func() { stopOnce.Do(func() { close(stop) }) }

	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			sw := &stripeStream{
				c: c, lfn: lfn, reps: reps, ri: worker % len(reps),
				total: total, wantCRC: wantCRC, haveCRC: haveCRC,
			}
			defer sw.close()
			for {
				// The window slot is acquired BEFORE claiming an index:
				// claims happen in index order, so outstanding stripes
				// stay contiguous with the write frontier and the
				// assembler can always free the slot the lowest claim
				// is waiting on.
				select {
				case slots <- struct{}{}:
				case <-stop:
					return
				}
				claimMu.Lock()
				idx := next
				next++
				claimMu.Unlock()
				if idx >= nStripes {
					<-slots
					return
				}
				chunks, n, err := sw.fetchStripe(idx, stripeSize, stop)
				select {
				case results <- stripeResult{idx: idx, chunks: chunks, n: n, err: err}:
				case <-stop:
					putChunks(chunks)
					return
				}
				if err != nil {
					abort()
					return
				}
			}
		}(i)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Assemble: write stripes to w strictly in order, releasing one
	// window slot per stripe written. Any failure aborts the workers,
	// then keeps draining to return their pooled chunks.
	var (
		written  int64
		firstErr error
		pending  = make(map[int]stripeResult, window)
		frontier int
		crc      uint32
	)
	for res := range results {
		if firstErr != nil {
			putChunks(res.chunks)
			continue
		}
		if res.err != nil {
			firstErr = fmt.Errorf("xrootd: stripe %d of %s: %w", res.idx, lfn, res.err)
			abort()
			continue
		}
		pending[res.idx] = res
		for {
			cur, ok := pending[frontier]
			if !ok {
				break
			}
			delete(pending, frontier)
			for _, ch := range cur.chunks {
				if firstErr == nil {
					wn, werr := w.Write((*ch.buf)[:ch.n])
					written += int64(wn)
					if !cfg.NoVerify && haveCRC {
						crc = crc32.Update(crc, crc32.IEEETable, (*ch.buf)[:wn])
					}
					if werr == nil && wn < ch.n {
						werr = io.ErrShortWrite
					}
					if werr != nil {
						firstErr = fmt.Errorf("xrootd: writing stripe %d to sink: %w", frontier, werr)
						abort()
					}
				}
				bufpool.Put(ch.buf)
			}
			<-slots
			frontier++
		}
	}
	for _, res := range pending {
		putChunks(res.chunks)
	}
	if firstErr != nil {
		return written, firstErr
	}
	if written != total {
		return written, fmt.Errorf("xrootd: striped fetch of %s assembled %d bytes, want %d", lfn, written, total)
	}
	if !cfg.NoVerify && haveCRC && crc != wantCRC {
		return written, fmt.Errorf("xrootd: striped fetch of %s checksum mismatch: got %08x want %08x",
			lfn, crc, wantCRC)
	}
	return written, nil
}

// openFirst opens lfn at the first replica that answers, in order.
func (c *Client) openFirst(lfn string, reps []Replica) (*File, error) {
	var firstErr error
	for _, rep := range reps {
		f, err := c.openAt(lfn, rep)
		if err == nil {
			return f, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("xrootd: no replicas for %s", lfn)
	}
	return nil, firstErr
}

func putChunks(chunks []chunk) {
	for _, ch := range chunks {
		bufpool.Put(ch.buf)
	}
}

// stripeStream is one worker's connection state: a current open file
// on one replica, cycling to the next replica on any failure. A
// replica whose stat disagrees with the reference size/checksum is
// treated as failed before any of its bytes are used.
type stripeStream struct {
	c       *Client
	lfn     string
	reps    []Replica
	ri      int
	f       *File
	total   int64
	wantCRC uint32
	haveCRC bool
}

func (sw *stripeStream) close() {
	if sw.f != nil {
		sw.f.Close()
		sw.f = nil
	}
}

// file returns an open file, dialing through the replica ring. It
// gives up after one full cycle of consecutive failures.
func (sw *stripeStream) file() (*File, error) {
	if sw.f != nil && !sw.f.Broken() {
		return sw.f, nil
	}
	sw.f = nil
	var firstErr error
	for tries := 0; tries < len(sw.reps); tries++ {
		rep := sw.reps[sw.ri%len(sw.reps)]
		f, err := sw.c.openAt(sw.lfn, rep)
		if err == nil {
			if err = sw.check(f); err == nil {
				sw.f = f
				return f, nil
			}
			f.Close()
			sw.c.Selector.ObserveError(rep)
		}
		if firstErr == nil {
			firstErr = err
		}
		sw.ri++
	}
	return nil, fmt.Errorf("xrootd: all %d replicas failed: %w", len(sw.reps), firstErr)
}

// check rejects a replica that disagrees with the reference copy. Old
// servers without stat pass (size is still compared from open).
func (sw *stripeStream) check(f *File) error {
	if f.Size() != sw.total {
		return fmt.Errorf("replica %s has size %d, want %d", f.rep.Addr, f.Size(), sw.total)
	}
	if !sw.haveCRC {
		return nil
	}
	size, crc, ok, err := f.Stat()
	if err != nil {
		return err
	}
	if ok && (size != sw.total || crc != sw.wantCRC) {
		return fmt.Errorf("replica %s content mismatch (size %d crc %08x, want %d %08x)",
			f.rep.Addr, size, crc, sw.total, sw.wantCRC)
	}
	return nil
}

// fetchStripe reads stripe idx into pooled chunks, failing over
// between replicas at the exact byte where an attempt died.
func (sw *stripeStream) fetchStripe(idx int, stripeSize int64, stop <-chan struct{}) ([]chunk, int64, error) {
	off := int64(idx) * stripeSize
	length := stripeSize
	if off+length > sw.total {
		length = sw.total - off
	}
	var (
		chunks   []chunk
		got      int64
		segBytes int64
		segStart = time.Now()
	)
	account := func(err error) {
		if sw.f != nil {
			sw.c.account(sw.f.rep, segBytes, time.Since(segStart), err)
		}
		segBytes = 0
		segStart = time.Now()
	}
	for got < length {
		select {
		case <-stop:
			putChunks(chunks)
			return nil, 0, fmt.Errorf("xrootd: striped fetch aborted")
		default:
		}
		f, err := sw.file()
		if err != nil {
			putChunks(chunks)
			return nil, got, err
		}
		want := length - got
		if want > int64(bufpool.ChunkSize) {
			want = int64(bufpool.ChunkSize)
		}
		buf := bufpool.Get()
		m, err := f.ReadAt((*buf)[:want], off+got)
		if m > 0 {
			chunks = append(chunks, chunk{buf: buf, n: m})
			got += int64(m)
			segBytes += int64(m)
		} else {
			bufpool.Put(buf)
		}
		if err != nil || m == 0 {
			if err == nil {
				err = io.ErrUnexpectedEOF // mid-file short read: desynchronised
			}
			account(err)
			sw.f.Close()
			sw.f = nil
			sw.ri++ // resume on the next replica
			continue
		}
	}
	account(nil)
	return chunks, got, nil
}
