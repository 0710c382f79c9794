/* Kernels of the anchored halfspace depth: the per-row rank codes of a
 * distance matrix, the table build over them, the counting sort of the
 * table's anchor pairs, the first-hit scan over those pairs, and the
 * permutation tests' depth counts, which take the last three for each of
 * many small reference groups.
 *
 * Each computes exactly what the numpy body of its entry point computes
 * (`_row_ranks`, `_prob_counts`, `HalfspaceProbTable.sorted_pairs` and
 * `_min_counts` in depth.py, `_batched_depth_counts` in inference.py):
 * every comparison is an IEEE comparison between two entries of one row,
 * and the ranks' bucket map needs IEEE rounding to keep the order, so the
 * build must never run under -ffast-math. Kernels are chosen by the dtypes
 * of their arrays alone, named by those dtypes. Arrays are C-contiguous and
 * row-major. A kernel that needs scratch allocates it, frees it before it
 * returns, and returns -1 when it cannot allocate it.
 *
 * The ranks, the table build, the pair sort, the scan and the depth counts
 * run on the core's one thread runner (`run_units`): a call splits its
 * work into units, which its threads claim one at a time, and takes as many
 * threads as its caller allows, its units number and its estimated work
 * pays for, starting and joining them before it returns. Units write
 * disjoint outputs with the same arithmetic on any thread, so every output
 * is the same at any thread count. Every other kernel runs on the calling
 * thread.
 *
 * The table blocks, spd2 and norms are built as target clones, chosen at
 * load time by the CPU: x86-64-v4 (AVX-512) where gcc 11 or later can
 * build it, AVX2, and the baseline. Every clone runs the same IEEE and
 * integer operations, so each gives the same bytes; defining CLONES empty
 * (-DCLONES=) builds the baseline alone.
 *
 * Two more kernels draw random streams: the permutation tests' orders
 * (`_order_batches` in inference.py) and the standard normals of
 * `rng.derive_normals`, which jiggling and refinement turn into tangents.
 * Both run numpy's SeedSequence mix and PCG64 step for step; the orders
 * then run Generator.shuffle, and the normals numpy's own ziggurat, from
 * numpy's static library libnpyrandom.a, linked into the core. So each
 * order and each normal is the one numpy's Generator draws for its stream,
 * and the numpy body is that Generator.
 *
 * The last two kernels take each pair of a distance matrix through one
 * fixed sequence of IEEE operations, so an entry does not depend on the
 * call's shape or on a BLAS library's threads: spd2 up to the eigenvalues
 * of spd:2 distances (`_whitened_eigs` in spaces/spd.py is its numpy body)
 * and norms through the whole of a Euclidean distance and up to each of
 * the two norms of a sphere distance (`norms` in spaces/euclidean.py).
 */
#define _POSIX_C_SOURCE 200112L /* posix_memalign */
#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#ifndef CLONES
#if defined(__x86_64__) && defined(__GNUC__) && __GNUC__ >= 11
#define CLONES __attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#elif defined(__x86_64__) && defined(__GNUC__)
#define CLONES __attribute__((target_clones("avx2", "default")))
#else
#define CLONES
#endif
#endif

/* Bytes to which each thread's scratch block is aligned and rounded, one
 * cache line, so that no line holds two threads' blocks: with two threads'
 * query rows in one line, two threads took 1.6 times the CPU time of one
 * for the same groups on a 2-core x86-64 Xeon. */
enum { ALIGN = 64 };

/* The least work per thread, in nanoseconds on one thread, for which a call
 * takes one more: starting and joining a thread takes tens of microseconds,
 * and the new thread reads its inputs into a cold cache. Each kernel
 * estimates its work from its shape, at a cost per step measured on one
 * thread of a 2-core x86-64 Xeon. A call below twice the grain, such as
 * the 100 x 300 ranks, table and self-query scan of a simulate replicate,
 * stays on the calling thread. */
enum { GRAIN = 400000 };

/* One kernel call on the core's runner: its units of work, numbered from 0,
 * are claimed one at a time through `next` by every thread of the call,
 * each thread working in its own scratch block of `block_size` bytes,
 * claimed through `thread`. A unit reads the call's arguments from `args`.
 * `all` starts at 1; a unit that returns 0 clears it. */
struct run {
    int (*unit)(void *args, int64_t u, unsigned char *block);
    void *args;
    int64_t units, block_size;
    unsigned char *blocks;
    int64_t next, thread;
    int all;
};

static void *run_claim(void *arg)
{
    struct run *run = arg;
    unsigned char *block = run->blocks
        + __atomic_fetch_add(&run->thread, 1, __ATOMIC_RELAXED) * run->block_size;
    for (int64_t u; (u = __atomic_fetch_add(&run->next, 1, __ATOMIC_RELAXED)) < run->units;)
        if (!run->unit(run->args, u, block))
            __atomic_store_n(&run->all, 0, __ATOMIC_RELAXED);
    return NULL;
}

/* The threads that a call of `units` units takes, of at most `threads`:
 * min(threads, units, work / GRAIN), and at least one. `work` estimates the
 * call's nanoseconds on one thread. */
static int64_t run_threads(int64_t threads, int64_t units, int64_t work)
{
    threads = threads < units ? threads : units;
    threads = threads < work / GRAIN ? threads : work / GRAIN;
    return threads > 1 ? threads : 1;
}

/* Runs every unit of a call, whose arguments `unit` reads from `args`, on
 * run_threads(threads, units, work) threads: the calling thread and threads
 * started here and joined before returning, so no thread outlives the call.
 * The threads' blocks of `block` bytes are allocated back to back before any
 * thread starts. A thread that cannot be started leaves its units to the
 * others. Units write disjoint outputs with the same arithmetic on any
 * thread, so no output depends on the thread count. Returns whether every
 * unit returned nonzero, or -1 when the blocks cannot be allocated. */
static int run_units(int (*unit)(void *, int64_t, unsigned char *), void *args, int64_t units,
                     int64_t block, int64_t threads, int64_t work)
{
    threads = run_threads(threads, units, work);
    struct run run = {unit, args, units, (block + ALIGN - 1) / ALIGN * ALIGN, NULL, 0, 0, 1};
    if (run.block_size > 0
        && posix_memalign((void **)&run.blocks, ALIGN, threads * run.block_size) != 0)
        return -1;
    pthread_t ids[threads];
    int64_t started = 1;
    while (started < threads && pthread_create(&ids[started], NULL, run_claim, &run) == 0)
        started++;
    run_claim(&run);
    for (int64_t t = 1; t < started; t++)
        pthread_join(ids[t], NULL);
    free(run.blocks);
    return run.all;
}

/* Pieces of at most SMALL values are sorted by insertion. A row is spread
 * over buckets at most LEVELS times, its own and one more for each
 * bucket of more than SMALL values, before merge sort takes the rest. */
enum { SMALL = 16, LEVELS = 2 };

/* Sorts the pairs (value[k], index[k]), k < len, ascending by value. */
static void insertion_sort(double *value, uint32_t *index, int64_t len)
{
    for (int64_t k = 1; k < len; k++) {
        double v = value[k];
        uint32_t i = index[k];
        int64_t j = k;
        for (; j > 0 && value[j - 1] > v; j--) {
            value[j] = value[j - 1];
            index[j] = index[j - 1];
        }
        value[j] = v;
        index[j] = i;
    }
}

/* The same order by a bottom-up merge sort over runs of SMALL, in
 * O(len log len) whatever the values; the spare arrays hold len pairs. */
static void merge_sort(double *value, uint32_t *index, int64_t len, double *spare_value,
                       uint32_t *spare_index)
{
    for (int64_t lo = 0; lo < len; lo += SMALL)
        insertion_sort(value + lo, index + lo, len - lo < SMALL ? len - lo : SMALL);
    double *from = value, *to = spare_value;
    uint32_t *from_index = index, *to_index = spare_index;
    for (int64_t width = SMALL; width < len; width *= 2) {
        for (int64_t lo = 0; lo < len; lo += 2 * width) {
            int64_t mid = len - lo < width ? len : lo + width;
            int64_t hi = len - mid < width ? len : mid + width;
            int64_t a = lo, b = mid, k = lo;
            for (; a < mid && b < hi; k++) {
                /* Both heads are loaded first, so the pick takes no branch. */
                double x = from[a], y = from[b];
                uint32_t i = from_index[a], j = from_index[b];
                int left = x <= y;
                to[k] = left ? x : y;
                to_index[k] = left ? i : j;
                a += left;
                b += !left;
            }
            for (; a < mid; a++, k++) {
                to[k] = from[a];
                to_index[k] = from_index[a];
            }
            for (; b < hi; b++, k++) {
                to[k] = from[b];
                to_index[k] = from_index[b];
            }
        }
        double *swap = from;
        from = to;
        to = swap;
        uint32_t *swap_index = from_index;
        from_index = to_index;
        to_index = swap_index;
    }
    if (from != value) {
        memcpy(value, from, len * sizeof *value);
        memcpy(index, from_index, len * sizeof *index);
    }
}

/* The bucket of v among len buckets, by linear interpolation from the
 * least value lo at `scale` buckets per unit: a map that never reverses
 * two values. A rounded product can pass len - 1, and an infinite scale
 * (a subnormal spread) makes 0 * inf, NaN, at the least value. */
static inline int64_t bucket_of(double v, double lo, double scale, int64_t len)
{
    double at = (v - lo) * scale;
    return at > 0 ? (at < (double)(len - 1) ? (int64_t)at : len - 1) : 0;
}

/* The same order by a distribution sort: one pass spreads the pairs over
 * len buckets between the least and the greatest value, each bucket of
 * more than SMALL pairs is sorted on its own, `levels` - 1 deep, so a
 * bucket that one far value crowded is spread again over its own range,
 * and one insertion pass then orders the small buckets. Merge sort takes
 * a piece with no levels left, or without a positive finite spread (all
 * equal, or holding an infinity), so a row costs O(len log len) whatever
 * its values. The spare arrays hold len pairs and start levels * (len + 1)
 * entries. */
static void bucket_sort(double *value, uint32_t *index, int64_t len, double *spare_value,
                        uint32_t *spare_index, uint32_t *start, int levels)
{
    if (len <= SMALL) {
        insertion_sort(value, index, len);
        return;
    }
    double lo = value[0], hi = value[0];
    for (int64_t k = 1; k < len; k++) {
        lo = value[k] < lo ? value[k] : lo;
        hi = value[k] > hi ? value[k] : hi;
    }
    double spread = hi - lo;
    if (levels == 0 || !(spread > 0 && spread < INFINITY)) {
        merge_sort(value, index, len, spare_value, spare_index);
        return;
    }
    double scale = (double)(len - 1) / spread;
    memset(start, 0, (len + 1) * sizeof *start);
    for (int64_t k = 0; k < len; k++)
        start[bucket_of(value[k], lo, scale, len) + 1]++;
    for (int64_t b = 0; b < len; b++)
        start[b + 1] += start[b];
    for (int64_t k = 0; k < len; k++) {
        uint32_t at = start[bucket_of(value[k], lo, scale, len)]++;
        spare_value[at] = value[k];
        spare_index[at] = index[k];
    }
    /* Bucket b now ends at start[b] and begins where bucket b - 1 ends. */
    for (int64_t b = 0, first = 0; b < len; first = start[b++])
        if (start[b] - first > SMALL)
            bucket_sort(spare_value + first, spare_index + first, start[b] - first,
                        value + first, index + first, start + len + 1, levels - 1);
    memcpy(value, spare_value, len * sizeof *value);
    memcpy(index, spare_index, len * sizeof *index);
    /* Each pair is now within its bucket, so insertion moves it no farther. */
    insertion_sort(value, index, len);
}

/* Rows of a ranks unit, and the nanoseconds that ranking takes per entry:
 * 15 to 23 on distances of 100 x 300 to 1000 x 1000. */
enum { ROWS = 8, RANK_NS = 20 };

struct ranks_args {
    const double *dist;
    int64_t n, n_anchors;
    void *codes;
};

/* codes[i, a] = the number of distinct values below dist[i, a] in row i of
 * an (n, n_anchors) matrix, n_anchors <= 256 for uint8 codes and <= 65536
 * for uint16; returns whether no row holds two equal values. -0.0 equals
 * +0.0 and +inf equals +inf under `!=`, as in numpy. NaN has no rank;
 * callers reject it first. A unit ranks ROWS rows, in a scratch block of
 * 2 * n_anchors values and (2 + LEVELS) * (n_anchors + 1) indices. */
#define RANKS(NAME, CODE)                                                      \
    static int NAME##_rows(void *arg, int64_t u, unsigned char *block)         \
    {                                                                          \
        const struct ranks_args *args = arg;                                   \
        int64_t n_anchors = args->n_anchors;                                   \
        int64_t end = args->n - u * ROWS < ROWS ? args->n : u * ROWS + ROWS;   \
        double *values = (double *)block;                                      \
        uint32_t *index = (uint32_t *)(values + 2 * n_anchors);                \
        uint32_t *spare = index + n_anchors + 1;                               \
        int distinct = 1;                                                      \
        for (int64_t i = u * ROWS; i < end; i++) {                             \
            const double *row = args->dist + i * n_anchors;                    \
            CODE *code = (CODE *)args->codes + i * n_anchors;                  \
            for (int64_t a = 0; a < n_anchors; a++) {                          \
                values[a] = row[a];                                            \
                index[a] = (uint32_t)a;                                        \
            }                                                                  \
            bucket_sort(values, index, n_anchors, values + n_anchors, spare,   \
                        spare + n_anchors + 1, LEVELS);                        \
            CODE rank = 0;                                                     \
            code[index[0]] = 0;                                                \
            for (int64_t k = 1; k < n_anchors; k++) {                          \
                rank += values[k] != values[k - 1];                            \
                code[index[k]] = rank;                                         \
            }                                                                  \
            distinct &= rank == n_anchors - 1;                                 \
        }                                                                      \
        return distinct;                                                       \
    }                                                                          \
                                                                               \
    int NAME(const double *dist, int64_t n, int64_t n_anchors, CODE *codes,    \
             int64_t threads)                                                  \
    {                                                                          \
        struct ranks_args args = {dist, n, n_anchors, codes};                  \
        return run_units(NAME##_rows, &args, (n + ROWS - 1) / ROWS,            \
                         2 * n_anchors * (int64_t)sizeof(double)               \
                         + (2 + LEVELS) * (n_anchors + 1) * (int64_t)sizeof(uint32_t), \
                         threads, n * n_anchors * RANK_NS);                    \
    }

RANKS(ranks_f64_u8, uint8_t)
RANKS(ranks_f64_u16, uint16_t)

/* A block of FIRST first anchors against a tile of TILE columns: its
 * uint16 accumulators take 16 KiB and stay in L1 while every sample row
 * streams past. The tile's codes, n rows of TILE entries, stay in L2
 * across the blocks that read them. Each row's part of the tile is copied
 * into a strip that is compared in whole runs of LANES bytes, one AVX-512
 * register or two AVX2 ones, so no column falls to a scalar remainder loop;
 * the sums over the strip's padding are never stored. With runs of 32
 * bytes, one AVX2 register, the AVX-512 clone ended about half the strips
 * in a 32-byte tail, and 230 x 920 and 400 x 400 tables took 8 % longer. */
enum { FIRST = 16, TILE = 512, LANES = 64 };

/* Compares of codes that the table build makes per nanosecond: 18 to 21 on
 * tables of 400 x 400 to 1000 x 1000 in the AVX2 clone, 21 to 27 in the
 * AVX-512 one, fewer on smaller ones. */
enum { TABLE_PER_NS = 18 };

struct table_args {
    const void *codes;
    int64_t n, n_anchors;
    int distinct;
    void *counts;
};

/* The blocks of first anchors that meet the column tile from c0: every
 * block, or with `distinct` the blocks up to the tile's last column. */
static int64_t table_blocks(const struct table_args *args, int64_t c0)
{
    int64_t end = args->distinct && args->n_anchors - c0 > TILE ? c0 + TILE : args->n_anchors;
    return (end + FIRST - 1) / FIRST;
}

/* counts[a1, a2] = #{i : codes[i, a1] <= codes[i, a2]} for an
 * (n, n_anchors) code matrix, into an (n_anchors, n_anchors) table of
 * COUNT; n <= 65535, and n <= 255 for uint8 counts. With `distinct` no row
 * holds two equal codes, so counts[a2, a1] = n - counts[a1, a2]: each block
 * compares only the tiles that reach its own first anchor, and writes the
 * columns past the block into the mirrored rows. A unit is one block of
 * first anchors against one tile, numbered tile by tile; no two units
 * write one entry, mirrored writes included. */
#define TABLE(NAME, CODE, COUNT)                                               \
    CLONES static int NAME##_block(void *arg, int64_t u, unsigned char *block) \
    {                                                                          \
        (void)block;                                                           \
        const struct table_args *args = arg;                                   \
        const CODE *codes = args->codes;                                       \
        COUNT *counts = args->counts;                                          \
        int64_t n = args->n, n_anchors = args->n_anchors, c0 = 0;              \
        int distinct = args->distinct;                                         \
        for (int64_t b; u >= (b = table_blocks(args, c0)); u -= b)             \
            c0 += TILE;                                                        \
        uint16_t acc[FIRST][TILE] __attribute__((aligned(LANES)));             \
        CODE strip[TILE] __attribute__((aligned(LANES)));                      \
        memset(strip, 0, sizeof strip);                                        \
        int64_t width = n_anchors - c0 < TILE ? n_anchors - c0 : TILE;         \
        int64_t lo = u * FIRST;                                                \
        int64_t hi = n_anchors - lo < FIRST ? n_anchors : lo + FIRST;          \
        int64_t from = distinct && lo > c0 ? lo - c0 : 0;                      \
        int64_t lanes = LANES / sizeof(CODE);                                  \
        int64_t start = from / lanes * lanes;                                  \
        int64_t stop = (width + lanes - 1) / lanes * lanes;                    \
        memset(acc, 0, sizeof acc);                                            \
        for (int64_t i = 0; i < n; i++) {                                      \
            const CODE *row = codes + i * n_anchors;                           \
            memcpy(strip + start, row + c0 + start, (width - start) * sizeof(CODE)); \
            for (int64_t a = lo; a < hi; a++) {                                \
                CODE first = row[a];                                           \
                uint16_t *sum = acc[a - lo];                                   \
                for (int64_t c = start; c < stop; c++)                         \
                    sum[c] += first <= strip[c];                               \
            }                                                                  \
        }                                                                      \
        for (int64_t a = lo; a < hi; a++)                                      \
            for (int64_t c = from; c < width; c++)                             \
                counts[a * n_anchors + c0 + c] = (COUNT)acc[a - lo][c];        \
        if (distinct)                                                          \
            for (int64_t c = hi > c0 ? hi - c0 : 0; c < width; c++)            \
                for (int64_t a = lo; a < hi; a++)                              \
                    counts[(c0 + c) * n_anchors + a] = (COUNT)(n - acc[a - lo][c]); \
        return 1;                                                              \
    }                                                                          \
                                                                               \
    void NAME(const CODE *codes, int64_t n, int64_t n_anchors, int distinct,   \
              COUNT *counts, int64_t threads)                                  \
    {                                                                          \
        struct table_args args = {codes, n, n_anchors, distinct, counts};      \
        int64_t units = 0;                                                     \
        for (int64_t c0 = 0; c0 < n_anchors; c0 += TILE)                       \
            units += table_blocks(&args, c0);                                  \
        run_units(NAME##_block, &args, units, 0, threads,                      \
                  n * n_anchors * n_anchors / (distinct ? 2 : 1) / TABLE_PER_NS); \
    }

TABLE(table_u8_u8, uint8_t, uint8_t)
TABLE(table_u8_u16, uint8_t, uint16_t)
TABLE(table_u16_u8, uint16_t, uint8_t)
TABLE(table_u16_u16, uint16_t, uint16_t)

/* Side of the square tiles in which a table meets its transpose: a tile
 * and its mirror, 64 rows of 64 uint16 counts each, stay in L1. */
enum { MIRROR = 64 };

/* Nanoseconds per table entry that the pair sort takes on one thread, its
 * tally 1.0 to 1.6 and its placing 1.8 to 4.7 on tables of 200 x 200 to
 * 1000 x 1000, more on larger ones, whose placing writes spread over more
 * memory. A sort on more than one thread takes blocks of SORT_ROWS rows. */
enum { SORT_NS = 4, SORT_ROWS = MIRROR };

/* One counting sort of a table's pairs, by blocks of `rows` table rows,
 * whose counts are at most `top`. Each block has its own histogram, a row of
 * the (blocks, top + 1) `hist`. */
struct sort_args {
    const void *counts;
    int64_t n_anchors, top, rows;
    int64_t *hist;
    int64_t bound;
    void *a1, *a2;
};

/* The first and one past the last table row of block u. */
static int64_t block_rows(const struct sort_args *args, int64_t u, int64_t *end)
{
    int64_t first = u * args->rows;
    *end = args->n_anchors - first < args->rows ? args->n_anchors : first + args->rows;
    return first;
}

/* The rows of each block of an (n_anchors, n_anchors) table's pair sort,
 * each block a unit of its tally and of its placing: SORT_ROWS when the
 * sort takes more than one of `threads` threads, else every row, one block,
 * so that a sort on one thread reads the table once. */
int64_t sort_rows(int64_t n_anchors, int64_t threads)
{
    int64_t blocks = (n_anchors + SORT_ROWS - 1) / SORT_ROWS;
    if (run_threads(threads, blocks, n_anchors * n_anchors * SORT_NS) > 1)
        return SORT_ROWS;
    return n_anchors > 1 ? n_anchors : 1;
}

/* For each block of `rows` rows of an (n_anchors, n_anchors) table whose
 * counts are at most `top`, its row of hist, (blocks, top + 1) and zeroed
 * by the caller, gets hist[c] = the number of off-diagonal entries equal to
 * c in those rows; returns the least pair maximum, the least over a1 < a2
 * of max(counts[a1, a2], counts[a2, a1]), or `top` when there is no pair.
 * A unit is one block. It reads each tile from its own rows to the columns
 * at or past its first row with the mirror tile, which holds the other
 * entry of each pair; a mirrored entry in the block's rows goes to its
 * histogram, and the entries left of the block's first row are read once
 * more, row by row. With one block the table is read once, tile by tile.
 * The blocks' least pair maxima meet in `bound`, which starts at `top`, by
 * an atomic minimum, the same at any thread count. */
#define TALLY(NAME, COUNT)                                                     \
    static int NAME##_rows(void *arg, int64_t u, unsigned char *block)         \
    {                                                                          \
        (void)block;                                                           \
        struct sort_args *args = arg;                                          \
        const COUNT *counts = args->counts;                                    \
        int64_t n_anchors = args->n_anchors, r1, r0 = block_rows(args, u, &r1); \
        int64_t *hist = args->hist + u * (args->top + 1);                      \
        COUNT bound = (COUNT)args->top;                                        \
        for (int64_t a = r0; a < r1; a++)                                      \
            for (int64_t b = 0; b < r0; b++)                                   \
                hist[counts[a * n_anchors + b]]++;                             \
        for (int64_t t0 = r0; t0 < r1; t0 += MIRROR) {                         \
            int64_t t1 = r1 - t0 < MIRROR ? r1 : t0 + MIRROR;                  \
            for (int64_t c0 = t0; c0 < n_anchors; c0 += MIRROR) {              \
                int64_t c1 = n_anchors - c0 < MIRROR ? n_anchors : c0 + MIRROR; \
                for (int64_t a = t0; a < t1; a++)                              \
                    for (int64_t b = a < c0 ? c0 : a + 1; b < c1; b++) {       \
                        COUNT x = counts[a * n_anchors + b];                   \
                        COUNT y = counts[b * n_anchors + a];                   \
                        hist[x]++;                                             \
                        if (b < r1)                                            \
                            hist[y]++;                                         \
                        COUNT most = x > y ? x : y;                            \
                        bound = most < bound ? most : bound;                   \
                    }                                                          \
            }                                                                  \
        }                                                                      \
        int64_t least = __atomic_load_n(&args->bound, __ATOMIC_RELAXED);       \
        while (bound < least                                                   \
               && !__atomic_compare_exchange_n(&args->bound, &least, bound, 0, \
                                               __ATOMIC_RELAXED, __ATOMIC_RELAXED)) \
            ;                                                                  \
        return 1;                                                              \
    }                                                                          \
                                                                               \
    int64_t NAME(const COUNT *counts, int64_t n_anchors, int64_t top, int64_t rows, \
                 int64_t *hist, int64_t threads)                               \
    {                                                                          \
        struct sort_args args = {counts, n_anchors, top, rows, hist, top, NULL, NULL}; \
        run_units(NAME##_rows, &args, (n_anchors + rows - 1) / rows, 0, threads, \
                  n_anchors * n_anchors * SORT_NS);                            \
        return args.bound;                                                     \
    }

TALLY(tally_u8, uint8_t)
TALLY(tally_u16, uint16_t)

/* Turns the blocks' histograms into their first free positions: prefix sums
 * over (count, block) up to `bound`, so that each block's pairs of a count
 * follow every pair of a lower count and every earlier block's pairs of the
 * same count. */
static void pair_starts(const struct sort_args *args)
{
    int64_t blocks = (args->n_anchors + args->rows - 1) / args->rows, bins = args->top + 1;
    for (int64_t c = 0, next = 0; c <= args->bound; c++)
        for (int64_t u = 0; u < blocks; u++) {
            int64_t size = args->hist[u * bins + c];
            args->hist[u * bins + c] = next;
            next += size;
        }
}

/* Columns of a table row whose kept entries are listed before placing:
 * listing every column and advancing past the kept ones only takes no
 * branch on the count, which about half the entries pass. */
enum { CHUNK = 256 };

/* The off-diagonal pairs (a1, a2) with counts[a1, a2] <= bound, ascending
 * by count and in row-major order within a count: a distribution counting
 * sort over the blocks of `rows` rows whose histograms TALLY wrote, which
 * pair_starts turns into each block's next free position for each count.
 * A unit is one block, which places its own rows. a1 and a2 hold exactly
 * the hist[.., 0..bound] total. */
#define PAIRS(NAME, COUNT, PAIR)                                               \
    static int NAME##_rows(void *arg, int64_t u, unsigned char *block)         \
    {                                                                          \
        (void)block;                                                           \
        const struct sort_args *args = arg;                                    \
        const COUNT *counts = args->counts;                                    \
        int64_t n_anchors = args->n_anchors, bound = args->bound, r1;          \
        int64_t *next = args->hist + u * (args->top + 1);                      \
        PAIR *a1 = args->a1, *a2 = args->a2;                                   \
        for (int64_t a = block_rows(args, u, &r1); a < r1; a++) {              \
            const COUNT *row = counts + a * n_anchors;                         \
            for (int64_t b0 = 0; b0 < n_anchors; b0 += CHUNK) {                \
                int64_t b1 = n_anchors - b0 < CHUNK ? n_anchors : b0 + CHUNK;  \
                uint32_t kept[CHUNK];                                          \
                int64_t m = 0;                                                 \
                for (int64_t b = b0; b < b1; b++) {                            \
                    kept[m] = (uint32_t)b;                                     \
                    m += (row[b] <= bound) & (b != a);                         \
                }                                                              \
                for (int64_t j = 0; j < m; j++) {                              \
                    int64_t k = next[row[kept[j]]]++;                          \
                    a1[k] = (PAIR)a;                                           \
                    a2[k] = (PAIR)kept[j];                                     \
                }                                                              \
            }                                                                  \
        }                                                                      \
        return 1;                                                              \
    }                                                                          \
                                                                               \
    void NAME(const COUNT *counts, int64_t n_anchors, int64_t top, int64_t rows, \
              int64_t bound, int64_t *hist, PAIR *a1, PAIR *a2, int64_t threads) \
    {                                                                          \
        struct sort_args args = {counts, n_anchors, top, rows, hist, bound, a1, a2}; \
        pair_starts(&args);                                                    \
        run_units(NAME##_rows, &args, (n_anchors + rows - 1) / rows, 0, threads, \
                  n_anchors * n_anchors * SORT_NS);                            \
    }

PAIRS(pairs_u8_u16, uint8_t, uint16_t)
PAIRS(pairs_u16_u16, uint16_t, uint16_t)

/* Queries of a scan unit. A scan stops at its first hit, so a call's work
 * is estimated from the most pairs it can read, every pair for every query:
 * SCAN_PER_NS of those per nanosecond is what self-depth scans took on
 * spd:2, the slowest of spd:2, sphere:2 and euclidean:5 (14 to 20 on
 * spd:2, over 50 on the others). */
enum { QUERIES = 4, SCAN_PER_NS = 16 };

struct scan_args {
    const void *query;
    int64_t m, n_anchors;
    const uint16_t *a1, *a2;
    int64_t n_pairs;
    int64_t *first;
};

/* first[j] = the least k < n_pairs with query[j, a1[k]] <= query[j, a2[k]],
 * or -1, for an (m, n_anchors) query matrix, one query at a time: the row
 * stays in cache for its whole scan while the pairs stream past it in order.
 * A unit scans QUERIES queries. */
#define SCAN(NAME, QUERY, PAIR)                                                \
    static int NAME##_queries(void *arg, int64_t u, unsigned char *block)      \
    {                                                                          \
        (void)block;                                                           \
        const struct scan_args *args = arg;                                    \
        const PAIR *a1 = args->a1, *a2 = args->a2;                             \
        int64_t n_pairs = args->n_pairs;                                       \
        int64_t end = args->m - u * QUERIES < QUERIES ? args->m : u * QUERIES + QUERIES; \
        for (int64_t j = u * QUERIES; j < end; j++) {                          \
            const QUERY *row = (const QUERY *)args->query + j * args->n_anchors; \
            int64_t k = 0;                                                     \
            while (k < n_pairs && !(row[a1[k]] <= row[a2[k]]))                 \
                k++;                                                           \
            args->first[j] = k < n_pairs ? k : -1;                             \
        }                                                                      \
        return 1;                                                              \
    }                                                                          \
                                                                               \
    void NAME(const QUERY *query, int64_t m, int64_t n_anchors,                \
              const PAIR *a1, const PAIR *a2, int64_t n_pairs, int64_t *first, \
              int64_t threads)                                                 \
    {                                                                          \
        struct scan_args args = {query, m, n_anchors, a1, a2, n_pairs, first}; \
        run_units(NAME##_queries, &args, (m + QUERIES - 1) / QUERIES, 0, threads, \
                  m * n_pairs / SCAN_PER_NS);                                  \
    }

SCAN(scan_f64_u16, double, uint16_t)
SCAN(scan_u8_u16, uint8_t, uint16_t)
SCAN(scan_u16_u16, uint16_t, uint16_t)

struct depths_args {
    const void *codes;
    const int64_t *refs;
    int64_t total, m;
    int distinct;
    void *out;
};

/* out[r, y] = the least entry of reference group r's table over the anchor
 * pairs (a1, a2) that pooled observation y admits,
 * codes[y, ref[a1]] <= codes[y, ref[a2]], or m when it admits none, for a
 * (total, total) matrix of pooled codes and an (n_refs, m) array of pooled
 * indices, one group per row; counts are uint8 or uint16, and m <= 65535.
 * A unit is one group, whose row of `out` one thread writes.
 *
 * A group's table is queried as depth.py queries any table: table_*, then
 * the tally and placing of the pair sort, then scan_* over the query, the
 * observations' codes at the members, (total, m), each on the group's
 * thread; the sort is one block of m rows, whose histogram has m + 1 bins,
 * for no count passes m, and a group with no pair has bound m.
 * A thread's block holds the histogram and the first hits (int64), the
 * pairs (uint16, m * m each), the table in m * m uint16 slots whatever its
 * count type, the query, and the (m, m) copy of its member rows that
 * table_* reads. A group takes about DEPTHS_NS nanoseconds per member pair,
 * 11 to 14 for groups of 30 to 60 among 60 to 240, and a microsecond more. */
enum { DEPTHS_NS = 13 };

#define DEPTHS(C, K, CODE, COUNT)                                              \
    static int depths_##C##_##K##_group(void *arg, int64_t r,                  \
                                        unsigned char *block)                  \
    {                                                                          \
        const struct depths_args *args = arg;                                  \
        const CODE *codes = args->codes;                                       \
        int64_t total = args->total, m = args->m;                              \
        const int64_t *ref = args->refs + r * m;                               \
        int64_t *hist = (int64_t *)block, *first = hist + m + 1;               \
        uint16_t *a1 = (uint16_t *)(first + total), *a2 = a1 + m * m;          \
        COUNT *table = (COUNT *)(a2 + m * m);                                  \
        CODE *query = (CODE *)(a2 + 2 * m * m), *members = query + total * m;  \
        COUNT *out = (COUNT *)args->out + r * total;                           \
        for (int64_t y = 0; y < total; y++)                                    \
            for (int64_t j = 0; j < m; j++)                                    \
                query[y * m + j] = codes[y * total + ref[j]];                  \
        for (int64_t i = 0; i < m; i++)                                        \
            memcpy(members + i * m, query + ref[i] * m, m * sizeof(CODE));     \
        table_##C##_##K(members, m, m, args->distinct, table, 1);              \
        memset(hist, 0, (m + 1) * sizeof *hist);                               \
        struct sort_args sort = {table, m, m, m, hist, m, a1, a2};             \
        tally_##K##_rows(&sort, 0, NULL);                                      \
        pair_starts(&sort);                                                    \
        pairs_##K##_u16_rows(&sort, 0, NULL);                                  \
        scan_##C##_u16(query, total, m, a1, a2, hist[sort.bound], first, 1);   \
        for (int64_t y = 0; y < total; y++)                                    \
            out[y] = first[y] < 0 ? (COUNT)m                                   \
                                  : table[a1[first[y]] * m + a2[first[y]]];    \
        return 1;                                                              \
    }                                                                          \
                                                                               \
    int depths_##C##_##K(const CODE *codes, int64_t total,                     \
                         const int64_t *refs, int64_t n_refs, int64_t m,       \
                         int distinct, COUNT *out, int64_t threads)            \
    {                                                                          \
        struct depths_args args = {codes, refs, total, m, distinct, out};      \
        int64_t bytes = (m + 1 + total) * (int64_t)sizeof(int64_t)             \
                        + 3 * m * m * (int64_t)sizeof(uint16_t)                \
                        + (total + m) * m * (int64_t)sizeof(CODE);             \
        return run_units(depths_##C##_##K##_group, &args, n_refs, bytes, threads, \
                         n_refs * (m * m * DEPTHS_NS + 1000));                 \
    }

DEPTHS(u8, u8, uint8_t, uint8_t)
DEPTHS(u8, u16, uint8_t, uint16_t)
DEPTHS(u16, u8, uint16_t, uint8_t)
DEPTHS(u16, u16, uint16_t, uint16_t)

/* PCG64 (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
 * Statistically Good Algorithms for Random Number Generation", 2014) as
 * numpy runs it: a 128-bit LCG whose 64-bit draw is the XSL-RR output of
 * the state after each step. A 32-bit draw returns the low half of a 64-bit
 * draw and keeps its high half for the next 32-bit draw. unsigned __int128
 * is a GCC and Clang extension of 64-bit targets; where it is missing the
 * core does not build, and numpy runs every kernel's body instead. */
typedef unsigned __int128 u128;

struct pcg64 {
    u128 state, inc;
    uint32_t high;
    int has_high;
};

static uint64_t pcg64_next64(struct pcg64 *rng)
{
    const u128 mult = (u128)2549297995355413924ULL << 64 | 4865540595714422341ULL;
    rng->state = rng->state * mult + rng->inc;
    uint64_t x = (uint64_t)(rng->state >> 64) ^ (uint64_t)rng->state;
    unsigned rot = (unsigned)(rng->state >> 122);
    return x >> rot | x << (-rot & 63);
}

static uint32_t pcg64_next32(struct pcg64 *rng)
{
    if (rng->has_high) {
        rng->has_high = 0;
        return rng->high;
    }
    uint64_t x = pcg64_next64(rng);
    rng->high = (uint32_t)(x >> 32);
    rng->has_high = 1;
    return (uint32_t)x;
}

/* numpy's SeedSequence constants (numpy/random/bit_generator.pyx), as
 * rng.py names them; its pool holds POOL words. */
enum { POOL = 4 };
static const uint32_t INIT_A = 0x43B0D7E5, MULT_A = 0x931E8875, INIT_B = 0x8B51F9DD,
                      MULT_B = 0x58F38DED, MIX_MULT_L = 0xCA01F9DD, MIX_MULT_R = 0x4973F715;

static uint32_t hashmix(uint32_t value, uint32_t *hash)
{
    value ^= *hash;
    *hash *= MULT_A;
    value *= *hash;
    return value ^ value >> 16;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = MIX_MULT_L * x - MIX_MULT_R * y;
    return result ^ result >> 16;
}

/* Seeds rng as PCG64(SeedSequence(entropy)) does: the entropy mix of
 * rng._seed_state gives four uint64 words, the first two the initial state
 * (high word first) and the last two the stream, which
 * pcg_setseq_128_srandom_r sets as numpy's pcg64_set_seed calls it. */
static void pcg64_seed(struct pcg64 *rng, const uint32_t *entropy, int64_t n_words)
{
    uint32_t pool[POOL], hash = INIT_A;
    for (int i = 0; i < POOL; i++)
        pool[i] = hashmix(i < n_words ? entropy[i] : 0, &hash);
    for (int src = 0; src < POOL; src++)
        for (int dst = 0; dst < POOL; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &hash));
    for (int64_t src = POOL; src < n_words; src++)
        for (int dst = 0; dst < POOL; dst++)
            pool[dst] = mix(pool[dst], hashmix(entropy[src], &hash));
    uint64_t seed[POOL] = {0};
    hash = INIT_B;
    for (int i = 0; i < 2 * POOL; i++) {
        uint32_t value = pool[i % POOL] ^ hash;
        hash *= MULT_B;
        value *= hash;
        seed[i / 2] |= (uint64_t)(value ^ value >> 16) << (32 * (i % 2));
    }
    rng->inc = ((u128)seed[2] << 64 | seed[3]) << 1 | 1;
    rng->state = 0;
    pcg64_next64(rng);
    rng->state += (u128)seed[0] << 64 | seed[1];
    pcg64_next64(rng);
    rng->has_high = 0;
}

/* out[r] = Generator(PCG64(SeedSequence([*head, first + r]))).permutation(total)
 * for r < count, each an int64 row of an (count, total) array: the rep's
 * words follow the n_head words of head, as rng._words splits them, and the
 * shuffle is Generator.shuffle's Fisher-Yates loop over arange(total), each
 * index drawn by numpy's random_interval, rejection under the least all-ones
 * mask that covers it. Totals up to 2**32, whose every index numpy draws
 * from 32 bits; a pooled sample of more could not hold its distances. */
void orders(const uint32_t *head, int64_t n_head, int64_t first, int64_t count,
            int64_t total, int64_t *out)
{
    uint32_t entropy[n_head + 2];
    memcpy(entropy, head, n_head * sizeof *entropy);
    for (int64_t r = 0; r < count; r++) {
        uint64_t rep = (uint64_t)(first + r);
        entropy[n_head] = (uint32_t)rep;
        entropy[n_head + 1] = (uint32_t)(rep >> 32);
        struct pcg64 rng;
        pcg64_seed(&rng, entropy, n_head + 1 + (rep >> 32 != 0));
        int64_t *order = out + r * total;
        for (int64_t i = 0; i < total; i++)
            order[i] = i;
        for (int64_t i = total - 1; i > 0; i--) {
            uint32_t mask = (uint32_t)i, j;
            for (int shift = 1; shift < 32; shift *= 2)
                mask |= mask >> shift;
            while ((j = pcg64_next32(&rng) & mask) > (uint32_t)i)
                ;
            int64_t swap = order[i];
            order[i] = order[j];
            order[j] = swap;
        }
    }
}

/* numpy's bit generator (numpy/random/bitgen.h), through which the
 * distributions of numpy/random/lib/libnpyrandom.a read a stream, and the
 * ziggurat fill of standard normals (Marsaglia and Tsang, 2000) that
 * Generator.standard_normal runs; npy_intp is intptr_t. */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *state);
    uint32_t (*next_uint32)(void *state);
    double (*next_double)(void *state);
    uint64_t (*next_raw)(void *state);
} bitgen_t;

void random_standard_normal_fill(bitgen_t *bitgen, intptr_t count, double *out);

static uint64_t bitgen_next64(void *rng)
{
    return pcg64_next64(rng);
}

static uint32_t bitgen_next32(void *rng)
{
    return pcg64_next32(rng);
}

/* A double in [0, 1) from the top 53 bits of a 64-bit draw, as numpy's
 * pcg64_next_double. */
static double bitgen_next_double(void *rng)
{
    return (double)(pcg64_next64(rng) >> 11) * (1.0 / 9007199254740992.0);
}

/* out[r] = Generator(PCG64(SeedSequence([*head, *idx]))).standard_normal(dim)
 * for the r-th index idx of an ndim-dimensional shape in C order, each a
 * float64 row of a (count, dim) array: each index entry is one word after
 * the n_head words of head, so entries stay below 2**32. */
void normals(const uint32_t *head, int64_t n_head, const int64_t *shape, int64_t ndim,
             int64_t dim, double *out)
{
    uint32_t entropy[n_head + ndim];
    memcpy(entropy, head, n_head * sizeof *entropy);
    uint32_t *idx = entropy + n_head;
    int64_t count = 1;
    for (int64_t d = 0; d < ndim; d++) {
        idx[d] = 0;
        count *= shape[d];
    }
    for (int64_t r = 0; r < count; r++) {
        struct pcg64 rng;
        pcg64_seed(&rng, entropy, n_head + ndim);
        bitgen_t bitgen = {&rng, bitgen_next64, bitgen_next32, bitgen_next_double, bitgen_next64};
        random_standard_normal_fill(&bitgen, dim, out + r * dim);
        for (int64_t d = ndim - 1; d >= 0 && ++idx[d] == (uint64_t)shape[d]; d--)
            idx[d] = 0;
    }
}

/* The eigenvalues behind spd:2's affine-invariant distances, the step of
 * SPD.distance_matrix (spaces/spd.py) before its logs. For the left
 * matrices p[a] and their inverse square roots s[a], each row-major
 * (a < rows), and nb right matrices q held as four planes q[e * nb + b],
 * entry e = 2 i + j, it writes the eigenvalues of W = (s[a] q[b]) s[a],
 *     mid -+ sqrt(0.25 (w00 - w11)^2 + off^2),
 * mid = 0.5 (w00 + w11), off = 0.5 (w01 + w10), into lower[a * nb + b]
 * and upper[a * nb + b], each raised to at least `least` as np.maximum
 * raises it (NaN stays NaN). Every entry of s q and of W is one sum of two
 * rounded products: the build's -ffp-contract=off fuses no product into
 * its sum, so each pair takes the IEEE operations of the numpy body,
 * whatever the call's shape. A pair with p[a] == q[b], entry for
 * entry, has W = I, so both its eigenvalues are written as exactly 1. */
CLONES void spd2_f64(const double *p, const double *s, int64_t rows, const double *q,
                     int64_t nb, double least, double *lower, double *upper)
{
    const double *q00 = q, *q01 = q + nb, *q10 = q + 2 * nb, *q11 = q + 3 * nb;
    for (int64_t a = 0; a < rows; a++) {
        double p00 = p[4 * a], p01 = p[4 * a + 1], p10 = p[4 * a + 2], p11 = p[4 * a + 3];
        double s00 = s[4 * a], s01 = s[4 * a + 1], s10 = s[4 * a + 2], s11 = s[4 * a + 3];
        double *small = lower + a * nb, *large = upper + a * nb;
        for (int64_t b = 0; b < nb; b++) {
            double t00 = s00 * q00[b] + s01 * q10[b], t01 = s00 * q01[b] + s01 * q11[b];
            double t10 = s10 * q00[b] + s11 * q10[b], t11 = s10 * q01[b] + s11 * q11[b];
            double w00 = t00 * s00 + t01 * s10, w01 = t00 * s01 + t01 * s11;
            double w10 = t10 * s00 + t11 * s10, w11 = t10 * s01 + t11 * s11;
            double off = (w01 + w10) * 0.5, diff = w00 - w11, mid = (w00 + w11) * 0.5;
            double rad = sqrt(diff * diff * 0.25 + off * off);
            double lo = mid - rad, hi = mid + rad;
            int same = (p00 == q00[b]) & (p01 == q01[b]) & (p10 == q10[b]) & (p11 == q11[b]);
            lo = lo < least ? least : lo;
            hi = hi < least ? least : hi;
            small[b] = same ? 1.0 : lo;
            large[b] = same ? 1.0 : hi;
        }
    }
}

/* The norms behind Euclidean and sphere distances (spaces/euclidean.py and
 * spaces/sphere.py, which calls it on y and on -y). For `rows` points x[a],
 * each a row of dim entries, and nb points y held as dim planes
 * y[k * nb + b], it writes ||x[a] - y[b]|| into out[a * nb + b]: a square
 * root of squares summed over k in order, from zero, with no product fused
 * into its sum (-ffp-contract=off), so each pair takes the IEEE operations
 * of the numpy body (`norms`), whatever the call's shape. */
CLONES void norms_f64(const double *x, int64_t rows, const double *y, int64_t nb, int64_t dim,
                      double *out)
{
    for (int64_t a = 0; a < rows; a++) {
        double *row = out + a * nb;
        memset(row, 0, nb * sizeof *row);
        for (int64_t k = 0; k < dim; k++) {
            double xk = x[a * dim + k];
            const double *yk = y + k * nb;
            for (int64_t b = 0; b < nb; b++) {
                double d = xk - yk[b];
                row[b] += d * d;
            }
        }
        for (int64_t b = 0; b < nb; b++)
            row[b] = sqrt(row[b]);
    }
}
