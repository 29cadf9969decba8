package txkvclient_test

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"swisstm/internal/txkv"
	"swisstm/internal/txkvclient"
	"swisstm/internal/txkvwire"
)

// front listens in front of a server and splices every accepted
// connection to it, handing each request frame of the k-th accepted
// connection (0 = first) to record before forwarding it.
func front(t *testing.T, backend string, record func(conn int, req txkvwire.Req)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for k := 0; ; k++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(k int, c net.Conn) {
				defer c.Close()
				b, err := net.Dial("tcp", backend)
				if err != nil {
					return
				}
				defer b.Close()
				go io.Copy(c, b)
				br := bufio.NewReader(c)
				var buf []byte
				for {
					if buf, err = txkvwire.ReadFrame(br, buf); err != nil {
						return
					}
					if req, err := txkvwire.DecodeReq(buf); err == nil {
						record(k, req)
					}
					if txkvwire.WriteFrame(b, buf) != nil {
						return
					}
				}
			}(k, c)
		}
	}()
	return ln.Addr().String()
}

// goldenOps are the first 200 operations one seeded load connection
// emits per named mix (Seed 1, 512 keys, zipf 0.9): g/p = Get/Put of a
// key, t = Transfer over keys, s = Sum of a shard. A chained CAS shows
// as its read; the swap frame races the next first frame on a pipelined
// connection, so it is left out in both modes. The literals were
// recorded from the two workers the load generator had before they
// became one, and neither mode may drift from them: the in-process
// generator (experiments.TestSeededRunsReproduceOps) and the wire one
// draw from the same ladder.
var goldenOps = map[string]string{
	"read-heavy":   `g6 g247 g5 g202 g1 g1 g4 g1 g189 g2 g7 g315 g2 g1 g1 g30 g202 g159 g9 g84 g22 g104 g18 g158 g18 g59 g2 g2 g1 g78 g70 g1 g335 g10 g43 g9 g55 g24 g2 g150 g14 p8 g6 g3 g19 g469 g281 g4 g1 p474 g6 g78 g1 s7 g5 g295 g484 g1 g15 g2 g5 g1 g47 g49 g11 g12 g1 g147 g8 g449 g31 g1 g3 g1 g2 g87 g175 g8 g5 g4 g2 g15 p211 g300 g148 g1 g42 g5 g18 g1 g2 g1 g499 g445 g2 g78 g242 g43 g12 g2 g45 g200 g62 p2 g113 g1 g4 g199 g268 g1 g4 g13 g1 s0 g7 g62 g34 g232 g401 g3 g10 g7 g6 g1 p318 s12 g1 g425 p140 g22 g1 g159 g9 g1 g440 p14 g71 g160 g10 p219 g6 g59 g1 g4 g115 g4 g142 g120 g3 g229 g365 g1 g49 g15 g12 g10 g468 g242 g93 g4 g70 g27 g44 g29 g223 g7 g4 g356 g402 g325 p100 g32 g19 g5 g112 g24 g216 g120 g251 g1 g7 g175 g135 g7 p6 g373 g85 g115 g3 g2 p25 g44 g109 g1 g1 g1 g86 g1 g2 g338`,
	"update-heavy": `p87 g29 g253 g403 g38 g2 g1 p147 p294 g4 p44 g28 g1 p109 g420 p3 g316 p3 g2 g26 p63 g337 p3 g25 g5 g208 p1 g66 g56 g75 g10 g62 p64 p27 g25 p1 g3 p167 g409 g103 p279 p2 g2 g78 p279 p9 g11 g471 p32 p1 g133 g91 p21 p11 g442 p58 g22 g130 g16 p46 g274 p124 g78 p22 g106 p1 g63 g8 p57 g127 g101 g34 p4 g102 p11 p75 g3 g54 p23 g9 g291 p2 p109 g233 g25 p48 p268 p22 p1 g301 g24 g57 p2 p17 g42 g401 g40 p114 p19 g476 p6 p3 p7 g9 p3 p24 p17 g16 p74 p9 g25 g404 p433 g83 g10 g83 g2 g26 g317 p1 g10 p141 g203 p60 p9 g310 g97 g14 g4 p171 p16 g11 p11 p164 g7 g2 g14 p2 g8 p1 g21 g5 p112 g1 p3 g1 g8 g1 g18 p1 g3 g1 p1 g3 g3 p21 g10 g178 p94 g7 g4 g16 p255 p34 p24 g1 p3 p8 g203 g19 g5 g65 g48 g1 g35 g86 p1 g1 g508 g11 g56 g11 p5 g27 p387 p1 p81 p2 g21 p132 g221 g77 g11 g34 p356 g35 g10 p35 g7 p1`,
	"transfer":     `t[3,2,48,292] g2 t[1,65,230,8] g7 g13 g188 g1 g342 s11 g63 g404 g81 g61 g59 g38 t[35,76,40,1] g392 g6 g17 t[3,361,1,94] g109 t[14,5,161,320] g4 t[1,4,448,3] t[120,6,447,34] g6 g282 g20 g118 g114 g52 g97 g358 g22 g1 g2 g51 g20 g246 g18 t[266,195,72,1] s1 g8 g1 g2 g25 g22 t[56,164,166,96] g6 g214 g183 g43 g312 t[382,59,1,8] g40 g11 g15 t[374,1,4,5] g266 t[300,73,2,197] t[59,18,2,6] g119 g1 t[58,10,93,16] g107 g426 t[1,2,8,38] s13 g7 g43 g4 g63 g5 g97 g330 g135 g1 g198 g9 g1 g3 g15 g1 g6 g148 t[1,5,227,72] g5 g10 g132 g2 t[2,465,257,14] g225 g91 g43 g252 g88 g466 g378 g14 g2 g96 t[90,1,149,170] t[211,224,38,298] g12 t[29,51,8,20] g50 g2 t[233,24,3,1] t[282,1,2,10] g121 g279 g101 g12 g51 g57 g374 g50 g402 g66 t[7,253,363,64] t[64,31,117,1] t[50,81,5,3] g1 g91 g100 g205 g28 t[16,34,2,4] g94 g26 g2 g332 t[2,53,267,3] g5 g472 g104 t[342,129,291,1] g2 g55 g224 g53 g4 g155 g134 g3 g5 g3 g4 g320 g17 g1 g16 g120 g1 t[1,67,385,91] t[510,46,2,408] g78 g130 g136 t[5,216,256,43] g142 g2 s3 g275 g5 g12 g7 t[1,7,62,135] g2 g4 g52 g2 t[94,88,215,25] g24 g87 g3 s11 g12 g166 g46 t[1,7,215,234] g9 g32 g503 g25 g135 g115 g85 t[219,15,114,8] g9 t[427,4,6,257] t[17,35,3,21] g210 g3 s0 g40 g440 g30 g60 g1`,
	"read-only":    `g195 g1 g174 g26 g74 g4 g1 g104 g1 g2 g13 g6 g11 g18 g2 g191 g2 g64 g50 g171 g7 g38 g1 g3 g28 g22 g2 g76 g42 g14 g27 g4 g478 g134 g313 g1 g1 g1 g261 g50 g2 g22 g79 g2 g20 g14 g80 g99 g3 g11 g7 g324 g369 g1 g8 g2 g16 g1 g20 g337 g311 g326 g91 g2 g72 g46 g242 g2 g32 g13 g19 g119 g39 g93 g106 g15 g62 g44 g138 g80 g282 g302 g45 g16 g23 g495 g120 g3 g227 g32 g103 g373 g3 g234 g10 g1 g225 g19 g505 g1 g123 g70 g53 g191 g107 g152 g7 g17 g1 g8 g140 g54 g495 g140 g19 g482 g100 g13 g6 g118 g106 g449 g167 g491 g22 g1 g3 g28 g1 g42 g2 g157 g150 g97 g1 g11 g344 g294 g2 g19 g1 g26 g63 g11 g4 g18 g285 g3 g163 g2 g1 g276 g2 g1 g308 g12 g99 g13 g167 g8 g126 g22 g376 g267 g5 g104 g1 g2 g9 g3 g7 g6 g14 g39 g215 g256 g485 g6 g45 g36 g330 g49 g1 g11 g3 g5 g144 g25 g3 g67 g219 g273 g152 g3 g260 g8 g2 g40 g5 g3`,
}

func TestSeededWorkerOpSequence(t *testing.T) {
	for _, pipeline := range []int{0, 8} {
		for _, mix := range txkv.Mixes {
			t.Run(fmt.Sprintf("pipeline=%d/%s", pipeline, mix.Name), func(t *testing.T) {
				srv := startServer(t, "swisstm", 512)
				var mu sync.Mutex
				var got []string
				addr := front(t, srv.Addr().String(), func(conn int, req txkvwire.Req) {
					if conn != 1 { // 0 is Run's control connection
						return
					}
					var s string
					switch req.Op {
					case txkvwire.OpGet:
						s = fmt.Sprint("g", req.Key)
					case txkvwire.OpPut:
						s = fmt.Sprint("p", req.Key)
					case txkvwire.OpTransfer:
						s = "t" + strings.Join(strings.Fields(fmt.Sprint(req.Keys)), ",")
					case txkvwire.OpSum:
						s = fmt.Sprint("s", req.Shard)
					default: // the chained CAS, the pipelined run's closing Len
						return
					}
					mu.Lock()
					got = append(got, s)
					mu.Unlock()
				})
				res, err := txkvclient.Run(txkvclient.LoadConfig{
					Addr: addr, Mix: mix, Conns: 1, Keys: 512, Zipf: 0.9,
					Seed: 1, Ops: 200, Pipeline: pipeline,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.OracleErr != nil {
					t.Fatal(res.OracleErr)
				}
				mu.Lock()
				defer mu.Unlock()
				if have := strings.Join(got, " "); have != goldenOps[mix.Name] {
					t.Fatalf("op sequence drifted:\n have %s\n want %s", have, goldenOps[mix.Name])
				}
			})
		}
	}
}
