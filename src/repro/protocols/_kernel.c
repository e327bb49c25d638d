/* The compiled kernel: allocation-free loops behind the protocols' hot paths.
 *
 * Fused OLH scans: each loop evaluates H_s(v) = mix64(premix[v] ^ s) % g,
 * where premix[v] is mix64 of the item id (computed by the caller), and
 * folds the result straight into its output: no (reports x items) grid is
 * ever built.  Integer-only arithmetic with uint64 wraparound, so every
 * result equals the numpy reference in repro.protocols.hashing bit for bit.
 *
 * Unary-encoding loops (OUE/SUE perturbation, MGA's random padding, column
 * counts of bit matrices): every uniform comes from the caller's numpy bit
 * generator through its published C interface (next_double(state)), one
 * draw at a time in the order the numpy references in
 * repro.protocols.unary draw them, so reports and the generator's state
 * after the call equal the references' bit for bit.  No float matrix is
 * built.
 *
 * Nothing here allocates.  Built and loaded by repro.protocols.kernel.
 */
#include <stdint.h>
#include <string.h>

#define LOOP static inline __attribute__((always_inline)) void

static inline uint64_t mix64(uint64_t z)
{
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* out[v] += #{j < n : H_{seeds[j]}(v) == values[j]} for v < d. */
LOOP support_scan_loop(const uint64_t *premix, int64_t d, const uint64_t *seeds,
                       const int64_t *values, int64_t n, int64_t *out, uint64_t g)
{
    for (int64_t j = 0; j < n; j++) {
        const uint64_t s = seeds[j], y = (uint64_t)values[j];
        for (int64_t v = 0; v < d; v++)
            out[v] += mix64(premix[v] ^ s) % g == y;
    }
}

/* out[j] = #{i < t : H_{seeds[j]}(targets[i]) == values[j]} for j < n. */
LOOP target_scan_loop(const uint64_t *premix, int64_t t, const uint64_t *seeds,
                      const int64_t *values, int64_t n, int64_t *out, uint64_t g)
{
    for (int64_t j = 0; j < n; j++) {
        const uint64_t s = seeds[j], y = (uint64_t)values[j];
        int64_t acc = 0;
        for (int64_t i = 0; i < t; i++)
            acc += mix64(premix[i] ^ s) % g == y;
        out[j] = acc;
    }
}

/* out[v] += hist[k][H_{seeds[k]}(v)] for k < num_seeds, v < d, where
 * hist is a row-major (num_seeds x g) table. */
LOOP cohort_fold_loop(const uint64_t *premix, int64_t d, const uint64_t *seeds,
                      const int64_t *hist, int64_t num_seeds, int64_t *out, uint64_t g)
{
    for (int64_t k = 0; k < num_seeds; k++) {
        const uint64_t s = seeds[k];
        const int64_t *row = hist + k * (int64_t)g;
        for (int64_t v = 0; v < d; v++)
            out[v] += row[mix64(premix[v] ^ s) % g];
    }
}

/* The exported scans, all (premix, m, seeds, data, n, g, out).  Small
 * hash ranges get a copy of the loop with a constant divisor, which the
 * compiler turns into a multiply and shift instead of a hardware
 * division; the remainders are the same. */
#define SCAN(name)                                                               \
    void name(const uint64_t *premix, int64_t m, const uint64_t *seeds,          \
              const int64_t *data, int64_t n, uint64_t g, int64_t *out)          \
    {                                                                            \
        switch (g) {                                                             \
        case 2: name##_loop(premix, m, seeds, data, n, out, 2); return;          \
        case 3: name##_loop(premix, m, seeds, data, n, out, 3); return;          \
        case 4: name##_loop(premix, m, seeds, data, n, out, 4); return;          \
        case 5: name##_loop(premix, m, seeds, data, n, out, 5); return;          \
        case 6: name##_loop(premix, m, seeds, data, n, out, 6); return;          \
        case 7: name##_loop(premix, m, seeds, data, n, out, 7); return;          \
        case 8: name##_loop(premix, m, seeds, data, n, out, 8); return;          \
        case 9: name##_loop(premix, m, seeds, data, n, out, 9); return;          \
        }                                                                        \
        name##_loop(premix, m, seeds, data, n, out, g);                          \
    }

SCAN(support_scan)
SCAN(target_scan)
SCAN(cohort_fold)

/* ------------------------------------------------------------------ */
/* Unary encoding                                                      */
/* ------------------------------------------------------------------ */

/* A numpy bit generator's next_double: a uniform double in [0, 1). */
typedef double (*next_double_fn)(void *state);

/* out[i*d + j] = next() < q for i < n, j < d (row-major), then, when items
 * is not NULL, out[i*d + items[i]] = next() < p for i < n: the draws of
 * gen.random((n, d)) < q followed by gen.random(n) < p.  items[i] must lie
 * in [0, d). */
void oue_perturb(next_double_fn next, void *state, int64_t n, int64_t d, double q,
                 const int64_t *items, double p, uint8_t *out)
{
    const int64_t cells = n * d;
    for (int64_t k = 0; k < cells; k++)
        out[k] = next(state) < q;
    if (items)
        for (int64_t i = 0; i < n; i++)
            out[i * d + items[i]] = next(state) < p;
}

/* Rearrange a[0..n) so that a[k] holds its k-th smallest value, with
 * a[< k] <= a[k] <= a[> k] (Wirth's selection); returns a[k]. */
static double select_kth(double *a, int64_t n, int64_t k)
{
    int64_t lo = 0, hi = n - 1;
    while (lo < hi) {
        const double pivot = a[lo + (hi - lo) / 2];
        int64_t i = lo, j = hi;
        while (i <= j) {
            while (a[i] < pivot)
                i++;
            while (pivot < a[j])
                j--;
            if (i <= j) {
                const double t = a[i];
                a[i++] = a[j];
                a[j--] = t;
            }
        }
        if (k <= j)
            hi = j;
        else if (k >= i)
            lo = i;
        else
            break;
    }
    return a[k];
}

/* Buckets of the key histogram in mga_pad: a power of two, so that
 * key * buckets is exact and below buckets for every key in [0, 1). */
#define MAX_BUCKETS 4096

/* MGA's OUE padding for rows start..m-1 of the (m x d) bit matrix out: per
 * row, draw k keys (keys[j] for column cols[j], the draws of one row of
 * gen.random((m, k))) and set the bits of the pad columns with the
 * smallest keys, 1 <= pad <= k.  That set is the one
 * np.argpartition(keys, pad - 1)[:pad] picks whenever the pad-th and
 * (pad+1)-th smallest keys differ.  When they are equal the choice is
 * numpy's: the loop stops and returns the row, its keys left in keys, for
 * the caller to resolve and resume at the next row.  Returns m when every
 * row is done.  work is scratch of k doubles.
 *
 * The keys are uniform, so a histogram over equal-width buckets finds the
 * bucket holding the pad-th smallest key in one pass, and only that
 * bucket's few keys go through a comparison select. */
int64_t mga_pad(next_double_fn next, void *state, int64_t start, int64_t m, int64_t d,
                const int64_t *cols, int64_t k, int64_t pad, double *keys, double *work,
                uint8_t *out)
{
    int64_t buckets = 1;
    while (buckets < k && buckets < MAX_BUCKETS)
        buckets *= 2;
    const double scale = (double)buckets;
    int64_t hist[MAX_BUCKETS];
    for (int64_t i = start; i < m; i++) {
        uint8_t *row = out + i * d;
        for (int64_t j = 0; j < k; j++)
            keys[j] = next(state);
        if (pad == k) {
            for (int64_t j = 0; j < k; j++)
                row[cols[j]] = 1;
            continue;
        }
        for (int64_t b = 0; b < buckets; b++)
            hist[b] = 0;
        for (int64_t j = 0; j < k; j++)
            hist[(int64_t)(keys[j] * scale)]++;
        /* Bucket b holds the pad-th smallest key; `below` keys sit in
         * lower buckets, so it is the need-th smallest of bucket b. */
        int64_t b = 0, below = 0;
        while (below + hist[b] < pad)
            below += hist[b++];
        const int64_t need = pad - below;
        int64_t w = 0;
        for (int64_t j = 0; j < k; j++) {
            work[w] = keys[j];
            w += (int64_t)(keys[j] * scale) == b;
        }
        const double cut = select_kth(work, w, need - 1);
        for (int64_t j = need; j < w; j++)
            if (work[j] == cut)
                return i;
        for (int64_t j = 0; j < k; j++)
            row[cols[j]] |= keys[j] <= cut;
    }
    return m;
}

static inline uint64_t load64(const uint8_t *p)
{
    uint64_t x;
    memcpy(&x, p, sizeof x);
    return x;
}

/* 1 in every byte of x that is nonzero, 0 in the others. */
static inline uint64_t nonzero_bytes(uint64_t x)
{
    x |= x >> 4;
    x |= x >> 2;
    x |= x >> 1;
    return x & 0x0101010101010101ULL;
}

/* out[j] = #{i < n : bits[i*d + j] != 0} for j < d: numpy's column sum of
 * a bool matrix, where any nonzero byte counts as True.  Eight columns are
 * counted at once in the byte lanes of a word, which are flushed every
 * 255 rows, before a lane can overflow; columns go in tiles of TILE words
 * plus the last d % 8 columns, one byte counter each. */
void column_counts(const uint8_t *bits, int64_t n, int64_t d, int64_t *out)
{
    enum { TILE = 32, BLOCK = 255 };
    const int64_t words = d / 8, tail = d % 8;
    for (int64_t j = 0; j < d; j++)
        out[j] = 0;
    for (int64_t w0 = 0; w0 == 0 || w0 < words; w0 += TILE) {
        const int64_t tw = words - w0 < TILE ? words - w0 : TILE;
        const int64_t tt = w0 + tw == words ? tail : 0;
        for (int64_t i0 = 0; i0 < n; i0 += BLOCK) {
            const int64_t i1 = n - i0 < BLOCK ? n : i0 + BLOCK;
            uint64_t acc[TILE] = {0};
            uint8_t rest[8] = {0};
            for (int64_t i = i0; i < i1; i++) {
                const uint8_t *row = bits + i * d + 8 * w0;
                for (int64_t w = 0; w < tw; w++)
                    acc[w] += nonzero_bytes(load64(row + 8 * w));
                for (int64_t t = 0; t < tt; t++)
                    rest[t] += row[8 * tw + t] != 0;
            }
            int64_t *col = out + 8 * w0;
            for (int64_t w = 0; w < tw; w++) {
                uint8_t lanes[8];
                memcpy(lanes, &acc[w], sizeof lanes);
                for (int b = 0; b < 8; b++)
                    col[8 * w + b] += lanes[b];
            }
            for (int64_t t = 0; t < tt; t++)
                col[8 * tw + t] += rest[t];
        }
    }
}
