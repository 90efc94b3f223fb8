package vm

import (
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/sps"
)

// TestSafeMemcpyOverlapMigratesEntries is the regression test for the
// overlapping safe-variant memcpy: the byte copy snapshots the source via
// ReadBytes (memmove semantics), so the per-word safe-pointer-store
// migration must snapshot too. Before the fix, a forward overlapping copy
// re-read slots the loop had already overwritten, smearing the first
// entry across the destination range.
func TestSafeMemcpyOverlapMigratesEntries(t *testing.T) {
	p := compile(t, `int main(void) { return 0; }`)
	m, err := New(p, Config{Protect: backend.CPI})
	if err != nil {
		t.Fatal(err)
	}
	base, ok := m.malloc(128)
	if !ok {
		t.Fatal("malloc failed")
	}
	for i := 0; i < 3; i++ {
		a := base + uint64(i)*8
		v := uint64(100 + i)
		m.spsStore().Set(a, sps.Entry{Value: v, Lower: a, Upper: a + 8, Kind: sps.KindData})
		if err := m.mem.Store(a, 8, v); err != nil {
			t.Fatal(err)
		}
	}
	// Overlapping forward copy by one word: dst = base+8 overlaps src words
	// [base+8, base+16] that have not been migrated yet.
	if !m.memcpy(base+8, base, 24, true) {
		t.Fatalf("memcpy trapped: %v", m.trap)
	}
	for i := 0; i < 3; i++ {
		a := base + 8 + uint64(i)*8
		raw, err := m.mem.Load(a, 8)
		if err != nil {
			t.Fatal(err)
		}
		e, ok := m.spsStore().Get(a)
		if !ok {
			t.Fatalf("word %d: safe-store entry missing", i)
		}
		if want := uint64(100 + i); e.Value != want || raw != want {
			t.Errorf("word %d: entry value %d, raw %d, want %d (metadata must match memmove byte semantics)",
				i, e.Value, raw, want)
		}
	}
}

// Intrinsic edge-case coverage: the libc surface the workloads and attacks
// depend on.

func TestCalloc(t *testing.T) {
	mustExit(t, `
int main(void) {
	int *p = (int *)calloc(8, sizeof(int));
	int s = 0;
	for (int i = 0; i < 8; i++) s += p[i];
	p[3] = 5;
	return s + p[3];
}`, 5)
}

func TestMemmoveOverlap(t *testing.T) {
	mustExit(t, `
int main(void) {
	char buf[16] = "abcdefgh";
	memmove(buf + 2, buf, 6); // overlapping forward copy
	// expect "ababcdef"
	return strcmp(buf, "ababcdef") == 0;
}`, 1)
}

func TestStrncpyBounded(t *testing.T) {
	mustExit(t, `
int main(void) {
	char dst[8];
	memset(dst, 'x', 7);
	dst[7] = 0;
	strncpy(dst, "ab", 2); // no NUL within n
	return dst[0] == 'a' && dst[1] == 'b' && dst[2] == 'x';
}`, 1)
}

func TestStrncatAndStrncmp(t *testing.T) {
	mustExit(t, `
int main(void) {
	char buf[32];
	buf[0] = 0;
	strcat(buf, "ab");
	strncat(buf, "cdef", 2);
	int eq = strncmp(buf, "abcdxxxx", 4) == 0;
	int lt = strncmp("abc", "abd", 3) < 0;
	return eq + lt;
}`, 2)
}

func TestMemcmpSemantics(t *testing.T) {
	mustExit(t, `
int main(void) {
	char a[4] = "abc";
	char b[4] = "abd";
	int r1 = memcmp(a, b, 3) < 0;
	int r2 = memcmp(a, b, 2) == 0;
	int r3 = memcmp(b, a, 3) > 0;
	return r1 + r2 + r3;
}`, 3)
}

func TestSnprintfTruncates(t *testing.T) {
	r := mustExit(t, `
int main(void) {
	char buf[8];
	snprintf(buf, 4, "%d", 123456);
	puts(buf);
	return strlen(buf);
}`, 3)
	if r.Output != "123\n" {
		t.Errorf("output %q", r.Output)
	}
}

func TestAtoiEdges(t *testing.T) {
	mustExit(t, `
int main(void) {
	int a = atoi("42");
	int b = atoi("  -17zzz");
	int c = atoi("zzz");
	int d = atoi("");
	return a + b + c + d; // 42 - 17
}`, 25)
}

func TestAbs(t *testing.T) {
	mustExit(t, `int main(void) { return abs(-5) + abs(7) + abs(0); }`, 12)
}

func TestRandDeterministicWithSrand(t *testing.T) {
	src := `
int main(void) {
	srand(7);
	int a = rand() & 0xff;
	srand(7);
	int b = rand() & 0xff;
	return a == b;
}`
	mustExit(t, src, 1)
}

func TestClockMonotonic(t *testing.T) {
	mustExit(t, `
int main(void) {
	int t0 = clock();
	int s = 0;
	for (int i = 0; i < 100; i++) s += i;
	int t1 = clock();
	return t1 > t0;
}`, 1)
}

func TestSscanfMismatchStopsEarly(t *testing.T) {
	mustExit(t, `
int main(void) {
	int x = -1;
	int y = -1;
	int n = sscanf("12 abc", "%d %d", &x, &y);
	return n * 100 + x + (y == -1);
}`, 100+12+1)
}

func TestGetenvReturnsNull(t *testing.T) {
	mustExit(t, `
int main(void) {
	char *p = getenv("PATH");
	return p == 0;
}`, 1)
}

func TestPrintfUnsignedAndPointer(t *testing.T) {
	r := mustExit(t, `
int main(void) {
	printf("%u|", 42);
	int x = 0;
	printf("%p", &x);
	return 0;
}`, 0)
	if !strings.HasPrefix(r.Output, "42|0x") {
		t.Errorf("output %q", r.Output)
	}
}

func TestFreeNullAndDoubleFree(t *testing.T) {
	// Lenient like libc: free(NULL) is a no-op; double free is absorbed by
	// the simulator's allocator rather than corrupting it.
	mustExit(t, `
int main(void) {
	free(0);
	int *p = (int *)malloc(16);
	free(p);
	free(p);
	return 7;
}`, 7)
}

func TestMallocZero(t *testing.T) {
	mustExit(t, `
int main(void) {
	char *p = (char *)malloc(0);
	return p != 0;
}`, 1)
}

func TestHeapReuseIsLIFO(t *testing.T) {
	mustExit(t, `
int main(void) {
	char *a = (char *)malloc(32);
	char *b = (char *)malloc(32);
	free(a);
	free(b);
	char *c = (char *)malloc(32); // expect b (LIFO reuse)
	char *d = (char *)malloc(32); // expect a
	return (c == b) + (d == a);
}`, 2)
}

func TestSetjmpReturnsZeroFirst(t *testing.T) {
	mustExit(t, `
int jb[8];
int main(void) {
	int n = 0;
	int r = setjmp(jb);
	n++;
	if (r == 0 && n == 1) longjmp(jb, 9);
	return r * 10 + n;
}`, 92)
}

func TestLongjmpZeroBecomesOne(t *testing.T) {
	mustExit(t, `
int jb[8];
int main(void) {
	if (setjmp(jb) == 0) longjmp(jb, 0);
	return setjmp(jb); // second setjmp: plain 0
}`, 0)
}

func TestNestedSetjmpUnwind(t *testing.T) {
	mustExit(t, `
int jb[8];
int depth3(void) { longjmp(jb, 3); return 0; }
int depth2(void) { return depth3() + 100; }
int depth1(void) { return depth2() + 100; }
int main(void) {
	int r = setjmp(jb);
	if (r == 0) return depth1();
	return r; // unwound through two frames
}`, 3)
}

func TestSprintfWidthFlagsSkipped(t *testing.T) {
	r := mustExit(t, `
int main(void) {
	char buf[32];
	sprintf(buf, "%04d-%2s", 7, "ab");
	puts(buf);
	return 0;
}`, 0)
	// Width specifiers are parsed and ignored (documented subset).
	if r.Output != "7-ab\n" {
		t.Errorf("output %q", r.Output)
	}
}

func TestOutputCapture(t *testing.T) {
	r := mustExit(t, `
int main(void) {
	putchar('h');
	putchar('i');
	putchar('\n');
	return 0;
}`, 0)
	if r.Output != "hi\n" {
		t.Errorf("output %q", r.Output)
	}
}

func TestInputLen(t *testing.T) {
	p := compile(t, `int main(void) { return input_len(); }`)
	m, err := New(p, Config{Input: []byte("12345")})
	if err != nil {
		t.Fatal(err)
	}
	if r := m.Run("main"); r.ExitCode != 5 {
		t.Fatalf("input_len = %d", r.ExitCode)
	}
}

// TestFreeMisuseCounters: double frees and interior-pointer (untracked)
// frees stay lenient, but under the protected configurations the machine
// counts them and surfaces the counts in Result.
func TestFreeMisuseCounters(t *testing.T) {
	src := `
int main(void) {
	free(0);                      // free(NULL): defined, never counted
	int *p = (int *)malloc(64);
	free(p);
	free(p);                      // double free
	int *q = (int *)malloc(64);
	free(q + 2);                  // interior pointer: untracked address
	free(q);
	return 3;
}`
	p := compile(t, src)
	m, err := New(p, Config{Protect: backend.CPI})
	if err != nil {
		t.Fatal(err)
	}
	r := m.Run("main")
	if r.Trap != TrapExit || r.ExitCode != 3 {
		t.Fatalf("trap=%v exit=%d (%v), want lenient exit 3", r.Trap, r.ExitCode, r.Err)
	}
	if r.DoubleFrees != 1 {
		t.Errorf("DoubleFrees = %d, want 1", r.DoubleFrees)
	}
	if r.UntrackedFrees != 1 {
		t.Errorf("UntrackedFrees = %d, want 1", r.UntrackedFrees)
	}
	// The vanilla configuration absorbs the same misuse silently: the
	// counters are protection-config state, not allocator state.
	mv, err := New(compile(t, src), Config{})
	if err != nil {
		t.Fatal(err)
	}
	rv := mv.Run("main")
	if rv.DoubleFrees != 0 || rv.UntrackedFrees != 0 {
		t.Errorf("vanilla counted double=%d untracked=%d, want 0/0",
			rv.DoubleFrees, rv.UntrackedFrees)
	}
}

// TestFreeListCapped: the exact-size free lists are bounded, so a long
// steady-state alloc/free churn cannot balloon host memory; addresses past
// the cap are retired rather than kept reusable.
func TestFreeListCapped(t *testing.T) {
	p := compile(t, `int main(void) { return 0; }`)
	m, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]uint64, 0, 3*freeListCap)
	for i := 0; i < 3*freeListCap; i++ {
		a, ok := m.malloc(48)
		if !ok {
			t.Fatal("malloc failed")
		}
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		m.free(a, false)
	}
	if got := len(m.freeLst[48]); got != freeListCap {
		t.Errorf("free list holds %d addresses, want cap %d", got, freeListCap)
	}
	// LIFO reuse still works within the cap.
	a, ok := m.malloc(48)
	if !ok {
		t.Fatal("malloc failed")
	}
	if want := addrs[freeListCap-1]; a != want {
		t.Errorf("reused %#x, want LIFO head %#x", a, want)
	}
}
