/* Optimal path-family DP of structure._sweep, compiled.
 *
 * structure.py compiles this file on first use and calls swingbench_sweep
 * through ctypes; structure._sweep is the numpy reference it must equal
 * bit for bit.  Segment k covers SSM columns starts[k] ..
 * starts[k] + durations[k] - 1.  Per row, its state is the escape value
 * (the best family whose paths all ended on earlier rows) and one lane per
 * segment column (the best family whose last path ends in that column on
 * this row), kept for this row and the two before.  Path cell count L and
 * covered rows G travel packed as L << 32 | G, as in structure.py.
 *
 * Ties break as in _sweep: escape over path end, and step (1,1) over (2,1)
 * over (1,2); a later candidate wins only when strictly greater.  Lanes
 * start at -inf.  A path enters only column 0, from the escape value, so
 * column 1 has no (1,2) predecessor.  Only max and add touch the scores,
 * so the build must not contract or reassociate them.
 *
 * W segments of one duration are swept together, one per vector element:
 * column c of all W segments is one vector, so every step predecessor is
 * a whole vector of an earlier row and the selects are element-wise.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define W 8
#define STEP (((int64_t)1 << 32) | 1)

typedef double vd __attribute__((vector_size(W * sizeof(double))));
typedef int64_t vi __attribute__((vector_size(W * sizeof(int64_t))));
/* W doubles read from any double address, such as an SSM row */
typedef double vd_unaligned
    __attribute__((vector_size(W * sizeof(double)), aligned(8), may_alias));

/* m ? x : y per element, where m is a comparison result (all bits 0 or 1) */
static inline vd pick(vi m, vd x, vd y) { return (vd)(((vi)x & m) | ((vi)y & ~m)); }
static inline vi pick_i(vi m, vi x, vi y) { return (x & m) | (y & ~m); }

/* Returns 0, or -1 when the row buffers cannot be allocated. */
int swingbench_sweep(const double *ssm, int64_t n, const int64_t *durations,
                     const int64_t *starts, int64_t count, double *sigma,
                     int64_t *packed)
{
    int64_t width = 1;
    for (int64_t k = 0; k < count; k++)
        if (durations[k] > width)
            width = durations[k];
    /* three rows of scores plus the gathered SSM row, three of counters */
    vd *score = aligned_alloc(sizeof(vd), 4 * (size_t)width * sizeof(vd));
    vi *cells = aligned_alloc(sizeof(vi), 3 * (size_t)width * sizeof(vi));
    if (score == NULL || cells == NULL) {
        free(score);
        free(cells);
        return -1;
    }
    vd *gathered = score + 3 * width;
    const vi step = (vi){0} + STEP, one = (vi){0} + 1;

    for (int64_t k = 0; k < count;) {
        const int64_t d = durations[k];
        int64_t group = 1;
        while (group < W && k + group < count && durations[k + group] == d)
            group++;
        /* elements past the group repeat its last segment */
        int64_t off[W];
        int contiguous = group == W;
        for (int e = 0; e < W; e++) {
            off[e] = starts[k + (e < group ? e : group - 1)];
            contiguous = contiguous && off[e] == off[0] + e;
        }

        vd *prev = score, *prev2 = score + width, *next = score + 2 * width;
        vi *prev_c = cells, *prev2_c = cells + width, *next_c = cells + 2 * width;
        for (int64_t c = 0; c < d; c++) {
            prev[c] = prev2[c] = (vd){0} - INFINITY;
            prev_c[c] = prev2_c[c] = (vi){0};
        }
        vd esc = (vd){0};
        vi esc_c = (vi){0};
        for (int e = 0; e < W; e++)
            prev[0][e] = ssm[off[e]];
        prev_c[0] = step;

        for (int64_t row = 1; row < n; row++) {
            /* s(c): the SSM cells of column c, one per segment */
            const double *s = ssm + row * n + off[0];
            int64_t s_step = 1;
            if (!contiguous) {
                for (int64_t c = 0; c < d; c++)
                    for (int e = 0; e < W; e++)
                        gathered[c][e] = ssm[row * n + off[e] + c];
                s = (const double *)gathered;
                s_step = W;
            }
#define S(c) (*(const vd_unaligned *)(s + (c) * s_step))

            vi take_end = prev[d - 1] > esc;
            esc = pick(take_end, prev[d - 1], esc);
            esc_c = pick_i(take_end, prev_c[d - 1], esc_c);
            next[0] = esc + S(0);
            next_c[0] = esc_c + step;
            if (d > 1) {
                vi take_21 = prev2[0] > prev[0];
                next[1] = pick(take_21, prev2[0], prev[0]) + S(1);
                next_c[1] = pick_i(take_21, prev2_c[0] + one, prev_c[0]) + step;
            }
            for (int64_t c = 2; c < d; c++) {
                vi take_21 = prev2[c - 1] > prev[c - 1];
                vd best = pick(take_21, prev2[c - 1], prev[c - 1]);
                vi best_c = pick_i(take_21, prev2_c[c - 1] + one, prev_c[c - 1]);
                vi take_12 = prev[c - 2] > best;
                next[c] = pick(take_12, prev[c - 2], best) + S(c);
                next_c[c] = pick_i(take_12, prev_c[c - 2], best_c) + step;
            }
#undef S
            vd *t = prev2;
            prev2 = prev;
            prev = next;
            next = t;
            vi *t_c = prev2_c;
            prev2_c = prev_c;
            prev_c = next_c;
            next_c = t_c;
        }

        vi take_end = prev[d - 1] > esc;
        esc = pick(take_end, prev[d - 1], esc);
        esc_c = pick_i(take_end, prev_c[d - 1], esc_c);
        for (int e = 0; e < group; e++) {
            sigma[k + e] = esc[e];
            packed[k + e] = esc_c[e];
        }
        k += group;
    }

    free(score);
    free(cells);
    return 0;
}
