/* Fused OLH scans: hash, compare and accumulate in one pass.
 *
 * Each loop evaluates H_s(v) = mix64(premix[v] ^ s) % g, where premix[v]
 * is mix64 of the item id (computed by the caller), and folds the result
 * straight into its output: no (reports x items) grid is ever built and
 * nothing is allocated.  Integer-only arithmetic with uint64 wraparound,
 * so every result equals the numpy reference in repro.protocols.hashing
 * bit for bit.  Built and loaded by repro.protocols.kernel.
 */
#include <stdint.h>

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
