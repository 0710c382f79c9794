/* Integer kernels of the anchored halfspace depth: the table build over
 * per-row rank codes and the first-hit scan over sorted anchor pairs.
 *
 * Both compute exactly what the numpy kernels in depth.py compute: every
 * comparison is an IEEE `<=` between two entries of one row, so the build
 * must never run under -ffast-math. Arrays are C-contiguous and row-major.
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

/* counts[a1, a2] = #{i : codes[i, a1] <= codes[i, a2]} for an (n, n_anchors)
 * code matrix, into an (n_anchors, n_anchors) table of uint16 (wide) or
 * uint8 entries; n <= 65535, and n <= 255 when not wide. With `distinct`
 * no row holds two equal codes, so counts[a2, a1] = n - counts[a1, a2]:
 * each block compares only the tiles that reach its own first anchor, and
 * writes the columns past the block into the mirrored rows. */
#define TABLE(NAME, CODE)                                                      \
    CLONES void NAME(const CODE *codes, int64_t n, int64_t n_anchors,          \
                     int distinct, void *counts, int wide)                     \
    {                                                                          \
        uint16_t acc[FIRST][TILE] __attribute__((aligned(32)));                \
        CODE strip[TILE] __attribute__((aligned(32)));                         \
        uint16_t *wide_out = counts;                                           \
        uint8_t *narrow_out = counts;                                          \
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
                    for (int64_t c = from; c < width; c++) {                   \
                        if (wide)                                              \
                            wide_out[a * n_anchors + c0 + c] = acc[a - lo][c]; \
                        else                                                   \
                            narrow_out[a * n_anchors + c0 + c] = acc[a - lo][c]; \
                    }                                                          \
                if (!distinct)                                                 \
                    continue;                                                  \
                for (int64_t c = hi > c0 ? hi - c0 : 0; c < width; c++)        \
                    for (int64_t a = lo; a < hi; a++) {                        \
                        uint16_t mirror = (uint16_t)(n - acc[a - lo][c]);      \
                        if (wide)                                              \
                            wide_out[(c0 + c) * n_anchors + a] = mirror;       \
                        else                                                   \
                            narrow_out[(c0 + c) * n_anchors + a] = mirror;     \
                    }                                                          \
            }                                                                  \
        }                                                                      \
    }

TABLE(table_u8, uint8_t)
TABLE(table_u16, uint16_t)

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

SCAN(scan_f64_u8, double, uint8_t)
SCAN(scan_f64_u16, double, uint16_t)
SCAN(scan_u8_u8, uint8_t, uint8_t)
SCAN(scan_u8_u16, uint8_t, uint16_t)
SCAN(scan_u16_u8, uint16_t, uint8_t)
SCAN(scan_u16_u16, uint16_t, uint16_t)
