/* Integer kernels of the anchored halfspace depth: the table build over
 * per-row rank codes, the first-hit scan over sorted anchor pairs, and the
 * permutation tests' depth counts against many small reference groups.
 *
 * Each computes exactly what the numpy body of its entry point computes
 * (`_prob_counts` and `_min_counts` in depth.py, `_batched_depth_counts` in
 * inference.py): every comparison is an IEEE `<=` between two entries of
 * one row, so the build must never run under -ffast-math. Kernels are
 * chosen by the dtypes of their arrays alone, named by those dtypes. Arrays
 * are C-contiguous and row-major, and every scratch buffer is the caller's.
 */
#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) && defined(__GNUC__)
#define CLONES __attribute__((target_clones("avx2", "default")))
#else
#define CLONES
#endif

/* A block of FIRST first anchors against a tile of TILE columns: its
 * uint16 accumulators take 16 KiB and stay in L1 while every sample row
 * streams past. The tile's codes, n rows of TILE entries, stay in L2
 * across the blocks that read them. Each row's part of the tile is copied
 * into a strip that is compared in whole runs of LANES bytes, one AVX2
 * register, so no column falls to a scalar remainder loop; the sums over
 * the strip's padding are never stored. */
enum { FIRST = 16, TILE = 512, LANES = 32 };

/* counts[a1 * stride + a2] = #{i : codes[i, a1] <= codes[i, a2]} for an
 * (n, n_anchors) code matrix, into the first n_anchors entries of
 * n_anchors rows of COUNT, stride entries apart; n <= 65535, and n <= 255
 * for uint8 counts. With `distinct` no row holds two equal codes, so
 * counts[a2, a1] = n - counts[a1, a2]: each block compares only the tiles
 * that reach its own first anchor, and writes the columns past the block
 * into the mirrored rows. */
#define TABLE(NAME, CODE, COUNT)                                               \
    CLONES void NAME(const CODE *codes, int64_t n, int64_t n_anchors,          \
                     int distinct, COUNT *counts, int64_t stride)              \
    {                                                                          \
        uint16_t acc[FIRST][TILE] __attribute__((aligned(32)));                \
        CODE strip[TILE] __attribute__((aligned(32)));                         \
        memset(strip, 0, sizeof strip);                                        \
        for (int64_t c0 = 0; c0 < n_anchors; c0 += TILE) {                     \
            int64_t width = n_anchors - c0 < TILE ? n_anchors - c0 : TILE;     \
            int64_t end = distinct ? c0 + width : n_anchors;                   \
            for (int64_t lo = 0; lo < end; lo += FIRST) {                      \
                int64_t hi = n_anchors - lo < FIRST ? n_anchors : lo + FIRST;  \
                int64_t from = distinct && lo > c0 ? lo - c0 : 0;              \
                int64_t lanes = LANES / sizeof(CODE);                          \
                int64_t start = from / lanes * lanes;                          \
                int64_t stop = (width + lanes - 1) / lanes * lanes;            \
                memset(acc, 0, sizeof acc);                                    \
                for (int64_t i = 0; i < n; i++) {                              \
                    const CODE *row = codes + i * n_anchors;                   \
                    memcpy(strip + start, row + c0 + start,                    \
                           (width - start) * sizeof(CODE));                    \
                    for (int64_t a = lo; a < hi; a++) {                        \
                        CODE first = row[a];                                   \
                        uint16_t *sum = acc[a - lo];                           \
                        for (int64_t c = start; c < stop; c++)                 \
                            sum[c] += first <= strip[c];                       \
                    }                                                          \
                }                                                              \
                for (int64_t a = lo; a < hi; a++)                              \
                    for (int64_t c = from; c < width; c++)                     \
                        counts[a * stride + c0 + c] = (COUNT)acc[a - lo][c];   \
                if (!distinct)                                                 \
                    continue;                                                  \
                for (int64_t c = hi > c0 ? hi - c0 : 0; c < width; c++)        \
                    for (int64_t a = lo; a < hi; a++)                          \
                        counts[(c0 + c) * stride + a] =                        \
                            (COUNT)(n - acc[a - lo][c]);                       \
            }                                                                  \
        }                                                                      \
    }

TABLE(table_u8_u8, uint8_t, uint8_t)
TABLE(table_u8_u16, uint8_t, uint16_t)
TABLE(table_u16_u8, uint16_t, uint8_t)
TABLE(table_u16_u16, uint16_t, uint16_t)

/* Pairs scanned per query before moving on to the next query: the span's
 * pair indices stay in L1 while every query still scanning reads them. */
enum { SPAN = 4096 };

/* first[j] = the least k < n_pairs with query[j, a1[k]] <= query[j, a2[k]],
 * or -1, for an (m, n_anchors) query matrix. */
#define SCAN(NAME, QUERY, PAIR)                                                \
    void NAME(const QUERY *query, int64_t m, int64_t n_anchors,                \
              const PAIR *a1, const PAIR *a2, int64_t n_pairs, int64_t *first) \
    {                                                                          \
        for (int64_t j = 0; j < m; j++)                                        \
            first[j] = -1;                                                     \
        int64_t left = m;                                                      \
        for (int64_t lo = 0; lo < n_pairs && left; lo += SPAN) {               \
            int64_t hi = n_pairs - lo < SPAN ? n_pairs : lo + SPAN;            \
            left = 0;                                                          \
            for (int64_t j = 0; j < m; j++) {                                  \
                if (first[j] >= 0)                                             \
                    continue;                                                  \
                const QUERY *row = query + j * n_anchors;                      \
                int64_t k = lo;                                                \
                while (k < hi && !(row[a1[k]] <= row[a2[k]]))                  \
                    k++;                                                       \
                if (k < hi)                                                    \
                    first[j] = k;                                              \
                else                                                           \
                    left++;                                                    \
            }                                                                  \
        }                                                                      \
    }

SCAN(scan_f64_u16, double, uint16_t)
SCAN(scan_u8_u16, uint8_t, uint16_t)
SCAN(scan_u16_u16, uint16_t, uint16_t)

/* out[r, y] = the least entry of reference group r's table over the anchor
 * pairs (a1, a2) that pooled observation y admits,
 * codes[y, ref[a1]] <= codes[y, ref[a2]], for a (total, total) matrix of
 * pooled codes and an (n_refs, m) array of pooled indices, one group per
 * row; counts are uint8 or uint16, and m <= 65535.
 *
 * Each group's members' (m, m) codes go to `members`, and BUILD writes
 * their table straight into the rows of `padded`, (m, width) with width a
 * multiple of LANES, whose tails hold the count maximum; each
 * observation's codes at the members go to `query`, of width entries.
 * The minimum runs over whole padded rows into LANES running minima, one
 * per column modulo LANES, that stay in registers until the observation's
 * last row: a pair's admissibility flag minus 1 is 0 or the count maximum,
 * so OR-ing it with the entry reads the admissible entries only, with no
 * branch, and a padded entry stays the maximum whatever its flag. The
 * diagonal is admissible and holds m, which bounds every count, so a
 * single-member group keeps count m. */
#define DEPTHS(NAME, CODE, COUNT, BUILD)                                       \
    CLONES void NAME(const CODE *codes, int64_t total, const int64_t *refs,    \
                     int64_t n_refs, int64_t m, int distinct, CODE *members,   \
                     COUNT *padded, CODE *query, COUNT *out)                   \
    {                                                                          \
        int64_t width = (m + LANES - 1) / LANES * LANES;                       \
        for (int64_t a = 0; a < m; a++)                                        \
            for (int64_t b = m; b < width; b++)                                \
                padded[a * width + b] = (COUNT)-1;                             \
        for (int64_t b = m; b < width; b++)                                    \
            query[b] = 0;                                                      \
        for (int64_t r = 0; r < n_refs; r++) {                                 \
            const int64_t *ref = refs + r * m;                                 \
            for (int64_t i = 0; i < m; i++)                                    \
                for (int64_t j = 0; j < m; j++)                                \
                    members[i * m + j] = codes[ref[i] * total + ref[j]];       \
            BUILD(members, m, m, distinct, padded, width);                     \
            for (int64_t y = 0; y < total; y++) {                              \
                const CODE *row = codes + y * total;                           \
                for (int64_t j = 0; j < m; j++)                                \
                    query[j] = row[ref[j]];                                    \
                COUNT least[LANES];                                            \
                for (int64_t k = 0; k < LANES; k++)                            \
                    least[k] = (COUNT)m;                                       \
                for (int64_t a = 0; a < m; a++) {                              \
                    CODE first = query[a];                                     \
                    const COUNT *t = padded + a * width;                       \
                    for (int64_t b = 0; b < width; b += LANES)                 \
                        for (int64_t k = 0; k < LANES; k++) {                  \
                            COUNT v = t[b + k]                                 \
                                | (COUNT)((first <= query[b + k]) - 1);        \
                            least[k] = v < least[k] ? v : least[k];            \
                        }                                                      \
                }                                                              \
                for (int64_t k = 1; k < LANES; k++)                            \
                    least[0] = least[k] < least[0] ? least[k] : least[0];      \
                out[r * total + y] = least[0];                                 \
            }                                                                  \
        }                                                                      \
    }

DEPTHS(depths_u8_u8, uint8_t, uint8_t, table_u8_u8)
DEPTHS(depths_u8_u16, uint8_t, uint16_t, table_u8_u16)
DEPTHS(depths_u16_u8, uint16_t, uint8_t, table_u16_u8)
DEPTHS(depths_u16_u16, uint16_t, uint16_t, table_u16_u16)
