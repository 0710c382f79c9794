/* Kernels of the anchored halfspace depth: the per-row rank codes of a
 * distance matrix, the table build over them, each query's least admissible
 * pair by one of two calls of one signature, and the permutation tests'
 * depth counts, which build the table of each of many small reference
 * groups and take every pooled observation's least admissible count in one
 * pass over its pairs. Of the two query calls, `first` counting-sorts the
 * table's anchor pairs and scans each query to its first admissible pair,
 * and `least` passes over the whole table once per query; the caller
 * chooses between them by the query count alone.
 *
 * Each computes exactly what the numpy body of its entry point computes
 * (`_row_ranks`, `_prob_counts` and `_min_counts` in depth.py, whose numpy
 * sort and scan both query calls and the depth counts must equal,
 * `_batched_depth_counts` in inference.py): every comparison is an IEEE
 * comparison between two entries of one row, and the ranks' bucket map
 * needs IEEE rounding to keep the order, so the build must never run under
 * -ffast-math. Kernels are chosen by the dtypes of their arrays alone,
 * named by those dtypes. Arrays are C-contiguous and row-major. A kernel
 * that needs scratch, such as the histograms and kept pairs of `first`,
 * allocates it, frees it before it returns, and returns -1 when it cannot
 * allocate it.
 *
 * The ranks, the table build, the pair sort, the scan, the least-count pass
 * and the depth counts run on the core's one thread runner (`run_units`):
 * a call splits its work into units, which its threads claim one at a
 * time, and takes as many threads as its caller allows, its units number
 * and its estimated work pays for, starting and joining them before it
 * returns. Units write disjoint outputs with the same arithmetic on any
 * thread, so every output is the same at any thread count. Every other
 * kernel runs on the calling thread.
 *
 * The table's one run body, which the depth counts' groups call too, the
 * least-count pass, the depth counts' pass, spd2 and norms are built as
 * target clones, chosen at load time by the CPU: x86-64-v4 (AVX-512) where
 * gcc 11 or later can build it, AVX2, and the baseline.
 * Every clone runs the same IEEE and integer operations, so each gives the
 * same bytes; defining CLONES empty (-DCLONES=) builds the baseline alone.
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
 * thread of a 2-core x86-64 Xeon, and passes its grain, GRAIN but for the
 * depth counts (DEPTHS_GRAIN). A call below twice the grain, such as the
 * 100 x 300 ranks, table and self-query scan of a simulate replicate, stays
 * on the calling thread. */
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
 * min(threads, units, work / grain), and at least one. `work` estimates the
 * call's nanoseconds on one thread. */
static int64_t run_threads(int64_t threads, int64_t units, int64_t work, int64_t grain)
{
    threads = threads < units ? threads : units;
    threads = threads < work / grain ? threads : work / grain;
    return threads > 1 ? threads : 1;
}

/* Runs every unit of a call, whose arguments `unit` reads from `args`, on
 * run_threads(threads, units, work, grain) threads: the calling thread and
 * threads started here and joined before returning, so no thread outlives
 * the call. The threads' blocks of `block` bytes are allocated back to back
 * before any thread starts. A thread that cannot be started leaves its
 * units to the others. Units write disjoint outputs with the same
 * arithmetic on any thread, so no output depends on the thread count.
 * Returns whether every unit returned nonzero, or -1 when the blocks cannot
 * be allocated. */
static int run_units(int (*unit)(void *, int64_t, unsigned char *), void *args, int64_t units,
                     int64_t block, int64_t threads, int64_t work, int64_t grain)
{
    threads = run_threads(threads, units, work, grain);
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
                         threads, n * n_anchors * RANK_NS, GRAIN);             \
    }

RANKS(ranks_f64_u8, uint8_t)
RANKS(ranks_f64_u16, uint16_t)

/* The table is built run by run of LANES bytes of columns, one AVX-512
 * register or two AVX2 ones, so no column falls to a scalar remainder loop:
 * each run's codes of every sample row are copied into a strip padded with
 * zeros, and the sums over the padding are never stored. The sums of FIRSTS
 * first anchors over one run stay in registers while the sample rows
 * stream past; eight gave the permutation tests' groups the same times. */
enum { LANES = 64, FIRSTS = 4 };

/* Compares of codes that the table build makes per nanosecond on one
 * thread, counted as n * n_anchors^2, or half that without ties: 25 to 35
 * on tables of 100 x 300 to 1000 x 1000, tied and tie-free, 28.6 fitted
 * by least squares over them (AVX-512 clone). */
enum { TABLE_PER_NS = 28 };

struct table_args {
    const void *codes;
    int64_t n, n_anchors;
    int distinct;
    void *counts;
};

/* counts[a1, a2] = #{i : codes[i, a1] <= codes[i, a2]} for an
 * (n, n_anchors) code matrix, into an (n_anchors, n_anchors) table of
 * COUNT; n <= 65535, and n <= 255 for uint8 counts. With `distinct` no row
 * holds two equal codes, so counts[a2, a1] = n - counts[a1, a2].
 *
 * NAME_run builds the columns of the run from s0 in a strip of n * LANES
 * bytes. A row whose LANES bytes from s0 lie inside the matrix is read
 * whole and masked, so the copy takes whole registers in every clone (a
 * conditional read vectorizes only in the AVX-512 one); memcpy and memset
 * copy the few rows at its end, and on every row cost the groups 3 to 6 %.
 * The sums are SUM, the wider of the code and count types (uint8 sums of
 * uint16 codes took 1.5 times as long). The last pass of a run repeats its
 * last first anchor, whose sums are not stored. With `distinct` a run
 * compares only the first anchors before its last column and mirrors its
 * columns into the rows of those before its first, all FIRSTS of a pass or
 * none, for a run starts at a multiple of FIRSTS; a table of one run
 * mirrors nothing. A unit is one run, the widest first, so that with
 * `distinct` the last units claimed are the narrowest; no two runs write
 * one entry, mirrored writes included. */
#define TABLE(NAME, CODE, COUNT, SUM)                                          \
    CLONES static void NAME##_run(const CODE *codes, int64_t n, int64_t n_anchors, \
                                  int distinct, int64_t s0, CODE *strip, COUNT *counts) \
    {                                                                          \
        enum { RUN = LANES / sizeof(CODE) };                                   \
        int64_t s1 = n_anchors - s0 < RUN ? n_anchors : s0 + RUN;              \
        int64_t end = distinct ? s1 : n_anchors;                               \
        for (int64_t i = 0; i < n; i++) {                                      \
            const CODE *from = codes + i * n_anchors + s0;                     \
            if ((n - i) * n_anchors - s0 >= RUN)                               \
                for (int64_t c = 0; c < RUN; c++)                              \
                    strip[i * RUN + c] = from[c] & (c < s1 - s0 ? (CODE)-1 : 0); \
            else {                                                             \
                memcpy(strip + i * RUN, from, (s1 - s0) * sizeof(CODE));       \
                memset(strip + i * RUN + s1 - s0, 0, (RUN - s1 + s0) * sizeof(CODE)); \
            }                                                                  \
        }                                                                      \
        for (int64_t a0 = 0; a0 < end; a0 += FIRSTS) {                         \
            SUM sum[FIRSTS][RUN] __attribute__((aligned(LANES))) = {{0}};      \
            int64_t at[FIRSTS];                                                \
            for (int64_t k = 0; k < FIRSTS; k++)                               \
                at[k] = a0 + k < end ? a0 + k : end - 1;                       \
            for (int64_t i = 0; i < n; i++) {                                  \
                const CODE *row = codes + i * n_anchors, *run = strip + i * RUN; \
                for (int64_t k = 0; k < FIRSTS; k++) {                         \
                    CODE first = row[at[k]];                                   \
                    for (int64_t c = 0; c < RUN; c++)                          \
                        sum[k][c] += first <= run[c];                          \
                }                                                              \
            }                                                                  \
            for (int64_t a = a0; a < a0 + FIRSTS && a < end; a++)              \
                for (int64_t c = s0; c < s1; c++)                              \
                    counts[a * n_anchors + c] = (COUNT)sum[a - a0][c - s0];    \
            if (distinct && a0 < s0)                                           \
                for (int64_t c = s0; c < s1; c++)                              \
                    for (int64_t k = 0; k < FIRSTS; k++)                       \
                        counts[c * n_anchors + a0 + k] = (COUNT)(n - sum[k][c - s0]); \
        }                                                                      \
    }                                                                          \
                                                                               \
    static int NAME##_unit(void *arg, int64_t u, unsigned char *block)         \
    {                                                                          \
        const struct table_args *args = arg;                                   \
        int64_t run = LANES / sizeof(CODE);                                    \
        NAME##_run(args->codes, args->n, args->n_anchors, args->distinct,      \
                   ((args->n_anchors - 1) / run - u) * run, (CODE *)block, args->counts); \
        return 1;                                                              \
    }                                                                          \
                                                                               \
    int NAME(const CODE *codes, int64_t n, int64_t n_anchors, int distinct,    \
             COUNT *counts, int64_t threads)                                   \
    {                                                                          \
        struct table_args args = {codes, n, n_anchors, distinct, counts};      \
        int64_t run = LANES / sizeof(CODE);                                    \
        return run_units(NAME##_unit, &args, (n_anchors + run - 1) / run, n * LANES, \
                         threads, n * n_anchors * n_anchors / (distinct ? 2 : 1) \
                                      / TABLE_PER_NS, GRAIN);                  \
    }

TABLE(table_u8_u8, uint8_t, uint8_t, uint8_t)
TABLE(table_u8_u16, uint8_t, uint16_t, uint16_t)
TABLE(table_u16_u8, uint16_t, uint8_t, uint16_t)
TABLE(table_u16_u16, uint16_t, uint16_t, uint16_t)

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
    uint16_t *a1, *a2;
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
static int64_t sort_rows(int64_t n_anchors, int64_t threads)
{
    int64_t blocks = (n_anchors + SORT_ROWS - 1) / SORT_ROWS;
    if (run_threads(threads, blocks, n_anchors * n_anchors * SORT_NS, GRAIN) > 1)
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
    static int64_t NAME(const COUNT *counts, int64_t n_anchors, int64_t top,  \
                        int64_t rows, int64_t *hist, int64_t threads)          \
    {                                                                          \
        struct sort_args args = {counts, n_anchors, top, rows, hist, top, NULL, NULL}; \
        run_units(NAME##_rows, &args, (n_anchors + rows - 1) / rows, 0, threads, \
                  n_anchors * n_anchors * SORT_NS, GRAIN);                     \
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
#define PAIRS(NAME, COUNT)                                                     \
    static int NAME##_rows(void *arg, int64_t u, unsigned char *block)         \
    {                                                                          \
        (void)block;                                                           \
        const struct sort_args *args = arg;                                    \
        const COUNT *counts = args->counts;                                    \
        int64_t n_anchors = args->n_anchors, bound = args->bound, r1;          \
        int64_t *next = args->hist + u * (args->top + 1);                      \
        uint16_t *a1 = args->a1, *a2 = args->a2;                               \
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
                    a1[k] = (uint16_t)a;                                       \
                    a2[k] = (uint16_t)kept[j];                                 \
                }                                                              \
            }                                                                  \
        }                                                                      \
        return 1;                                                              \
    }                                                                          \
                                                                               \
    static void NAME(const COUNT *counts, int64_t n_anchors, int64_t top,     \
                     int64_t rows, int64_t bound, int64_t *hist, uint16_t *a1, \
                     uint16_t *a2, int64_t threads)                            \
    {                                                                          \
        struct sort_args args = {counts, n_anchors, top, rows, hist, bound, a1, a2}; \
        pair_starts(&args);                                                    \
        run_units(NAME##_rows, &args, (n_anchors + rows - 1) / rows, 0, threads, \
                  n_anchors * n_anchors * SORT_NS, GRAIN);                     \
    }

PAIRS(pairs_u8, uint8_t)
PAIRS(pairs_u16, uint16_t)

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
    int64_t *at;
};

/* at[j] = a1[k] * n_anchors + a2[k] for the least k < n_pairs with
 * query[j, a1[k]] <= query[j, a2[k]], or -1, for an (m, n_anchors) query
 * matrix, one query at a time: the row stays in cache for its whole scan
 * while the pairs stream past it in order. A unit scans QUERIES queries. */
#define SCAN(NAME, QUERY)                                                      \
    static int NAME##_queries(void *arg, int64_t u, unsigned char *block)      \
    {                                                                          \
        (void)block;                                                           \
        const struct scan_args *args = arg;                                    \
        const uint16_t *a1 = args->a1, *a2 = args->a2;                         \
        int64_t n_pairs = args->n_pairs;                                       \
        int64_t end = args->m - u * QUERIES < QUERIES ? args->m : u * QUERIES + QUERIES; \
        for (int64_t j = u * QUERIES; j < end; j++) {                          \
            const QUERY *row = (const QUERY *)args->query + j * args->n_anchors; \
            int64_t k = 0;                                                     \
            while (k < n_pairs && !(row[a1[k]] <= row[a2[k]]))                 \
                k++;                                                           \
            args->at[j] = k < n_pairs ? a1[k] * args->n_anchors + a2[k] : -1;  \
        }                                                                      \
        return 1;                                                              \
    }                                                                          \
                                                                               \
    static void NAME(const QUERY *query, int64_t m, int64_t n_anchors,         \
                     const uint16_t *a1, const uint16_t *a2, int64_t n_pairs,  \
                     int64_t *at, int64_t threads)                             \
    {                                                                          \
        struct scan_args args = {query, m, n_anchors, a1, a2, n_pairs, at};    \
        run_units(NAME##_queries, &args, (m + QUERIES - 1) / QUERIES, 0, threads, \
                  m * n_pairs / SCAN_PER_NS, GRAIN);                           \
    }

SCAN(scan_f64, double)
SCAN(scan_u8, uint8_t)
SCAN(scan_u16, uint16_t)

/* at[j] as the least-count pass gives it, for an (m, n_anchors) matrix of
 * query distances or codes and an (n_anchors, n_anchors) table,
 * n_anchors <= 65536: the table's pairs are counting-sorted up to the least
 * pair maximum, by the tally into histograms sized by the greatest count
 * and the placing into uint16 indices, and each query is scanned to its
 * first admissible pair. The histograms and the kept pairs are allocated
 * here and freed before returning; returns -1 when they cannot be. */
#define FIRST(Q, QUERY, C, COUNT)                                              \
    int first_##Q##_##C(const QUERY *query, int64_t m, int64_t n_anchors,     \
                        const COUNT *counts, int64_t *at, int64_t threads)     \
    {                                                                          \
        COUNT top = 0;                                                         \
        for (int64_t k = 0; k < n_anchors * n_anchors; k++)                    \
            top = counts[k] > top ? counts[k] : top;                           \
        int64_t rows = sort_rows(n_anchors, threads), bins = (int64_t)top + 1; \
        int64_t blocks = (n_anchors + rows - 1) / rows, kept = 0;              \
        int64_t *hist = calloc(blocks * bins + 1, sizeof *hist);               \
        if (hist == NULL)                                                      \
            return -1;                                                         \
        int64_t bound = tally_##C(counts, n_anchors, top, rows, hist, threads); \
        for (int64_t u = 0; u < blocks; u++)                                   \
            for (int64_t c = 0; c <= bound; c++)                               \
                kept += hist[u * bins + c];                                    \
        uint16_t *a1 = malloc((kept + 1) * sizeof *a1);                        \
        uint16_t *a2 = malloc((kept + 1) * sizeof *a2);                        \
        int done = a1 != NULL && a2 != NULL;                                   \
        if (done) {                                                            \
            pairs_##C(counts, n_anchors, top, rows, bound, hist, a1, a2, threads); \
            scan_##Q(query, m, n_anchors, a1, a2, kept, at, threads);          \
        }                                                                      \
        free(a1);                                                              \
        free(a2);                                                              \
        free(hist);                                                            \
        return done ? 1 : -1;                                                  \
    }

FIRST(f64, double, u8, uint8_t)
FIRST(f64, double, u16, uint16_t)
FIRST(u8, uint8_t, u8, uint8_t)
FIRST(u8, uint8_t, u16, uint16_t)
FIRST(u16, uint16_t, u8, uint8_t)
FIRST(u16, uint16_t, u16, uint16_t)

/* Table entries that the least-count pass reads per nanosecond on one
 * thread, counted as m * n_anchors^2: about 5 on spd:2 tables of 300
 * anchors, whose short rows pay more per entry, and 10 on 920 (AVX-512
 * clone). So a refinement step's 1 x 300 call (est. 11 us) stays on the
 * calling thread, and 10 queries against 920 anchors (est. 1.06 ms) take
 * two. */
enum { LEAST_PER_NS = 8 };

struct least_args {
    const void *query, *counts;
    int64_t n_anchors;
    int64_t *at;
};

/* at[j] = a1 * n_anchors + a2 for the least counts[a1, a2] over the pairs
 * that query j admits, a1 != a2 and query[j, a1] <= query[j, a2], the
 * first in row-major order among equal counts, or -1 when it admits none;
 * for an (m, n_anchors) code matrix and an (n_anchors, n_anchors) table.
 * This is the pair that first_* finds by its sort and scan, read without
 * the sort: a unit is one query, which passes over the table once, row by
 * row. Returns 1, as first_* does when it can allocate its scratch.
 *
 * NAME_query takes each row a1 in runs of LANES columns, the last run
 * ending at the row's end (so it may repeat columns, which a minimum
 * allows), and keeps per lane the least count that q[a1] <= q[a2] admits,
 * the diagonal included, or the greatest LANE where none is; LANE is the
 * wider of the code and count types. `best` starts above every count, and
 * only a row whose least lane lies below it is read again, entry by entry,
 * without the diagonal: that read finds the row's first pair of a count
 * below `best`, if any, and a row whose lanes all reach `best` holds none.
 * A row shorter than a run is read entry by entry alone. NAME_lanes loads
 * the counts whether or not they are admitted, so that the AVX2 and
 * baseline clones vectorize the choice too: with the load under the
 * condition, only the AVX-512 clone did, and the AVX2 one took 12 times as
 * long. */
#define LEAST(NAME, CODE, COUNT, LANE)                                         \
    static inline void NAME##_lanes(LANE *restrict lane, CODE first,           \
                                    const CODE *restrict q, const COUNT *restrict row) \
    {                                                                          \
        for (int64_t c = 0; c < LANES; c++) {                                  \
            LANE count = row[c], x = first <= q[c] ? count : (LANE)-1;         \
            lane[c] = x < lane[c] ? x : lane[c];                               \
        }                                                                      \
    }                                                                          \
                                                                               \
    CLONES static int64_t NAME##_query(const CODE *q, int64_t n_anchors,       \
                                       const COUNT *counts)                    \
    {                                                                          \
        int64_t best = (int64_t)(COUNT)-1 + 1, at = -1;                        \
        for (int64_t a = 0; a < n_anchors; a++) {                              \
            const COUNT *row = counts + a * n_anchors;                         \
            CODE first = q[a];                                                 \
            LANE low = 0;                                                      \
            if (n_anchors >= LANES) {                                          \
                LANE lane[LANES] __attribute__((aligned(LANES)));              \
                for (int64_t c = 0; c < LANES; c++)                            \
                    lane[c] = (LANE)-1;                                        \
                int64_t s = 0;                                                 \
                for (; s + LANES <= n_anchors; s += LANES)                     \
                    NAME##_lanes(lane, first, q + s, row + s);                 \
                if (s < n_anchors)                                             \
                    NAME##_lanes(lane, first, q + n_anchors - LANES, row + n_anchors - LANES); \
                low = lane[0];                                                 \
                for (int64_t c = 1; c < LANES; c++)                            \
                    low = lane[c] < low ? lane[c] : low;                       \
            }                                                                  \
            if (low < best)                                                    \
                for (int64_t b = 0; b < n_anchors; b++)                        \
                    if (b != a && first <= q[b] && row[b] < best) {            \
                        best = row[b];                                         \
                        at = a * n_anchors + b;                                \
                    }                                                          \
        }                                                                      \
        return at;                                                             \
    }                                                                          \
                                                                               \
    static int NAME##_unit(void *arg, int64_t j, unsigned char *block)         \
    {                                                                          \
        (void)block;                                                           \
        const struct least_args *args = arg;                                   \
        args->at[j] = NAME##_query((const CODE *)args->query + j * args->n_anchors, \
                                   args->n_anchors, args->counts);             \
        return 1;                                                              \
    }                                                                          \
                                                                               \
    int NAME(const CODE *query, int64_t m, int64_t n_anchors, const COUNT *counts, \
             int64_t *at, int64_t threads)                                     \
    {                                                                          \
        struct least_args args = {query, counts, n_anchors, at};               \
        return run_units(NAME##_unit, &args, m, 0, threads,                    \
                         m * n_anchors * n_anchors / LEAST_PER_NS, GRAIN);     \
    }

LEAST(least_u8_u8, uint8_t, uint8_t, uint8_t)
LEAST(least_u8_u16, uint8_t, uint16_t, uint16_t)
LEAST(least_u16_u8, uint16_t, uint8_t, uint16_t)
LEAST(least_u16_u16, uint16_t, uint16_t, uint16_t)

struct depths_args {
    const void *cols;
    const int64_t *refs;
    int64_t total, stride, m;
    int distinct;
    void *out;
};

/* out[r, y] = the least entry of reference group r's table over the anchor
 * pairs (a1, a2), a1 != a2, that pooled observation y admits,
 * codes[y, ref[a1]] <= codes[y, ref[a2]], or m when it admits none, for a
 * (total, total) matrix of pooled codes and an (n_refs, m) array of pooled
 * indices, one group per row, distinct within a group; counts are uint8 or
 * uint16, and m <= 65535. This is the count at the first hit of depth.py's
 * scan over the table's count-sorted pairs, read without the sort.
 *
 * A call first transposes the pooled codes, once for all its groups, by
 * blocks of LANES of their rows: cols[x, y] = codes[y, x], zeros from total
 * up to `width`, total rounded up to whole runs of LANES lanes. A row of
 * cols spans an odd number of cache lines, so that the rows written and
 * read at once fall in different cache sets: with rows of 4 KiB, a call of
 * 100 groups of 40 among 2000 took 30 ms rather than 10.7 ms. A unit is one
 * group, whose row of `out` one thread writes. It reads its (m, m) member
 * codes codes[ref[i], ref[j]] from its members' rows of cols,
 * table_*_run builds its table from them run by run, and depths_*_pass
 * gives every pooled observation its least admissible count in one pass
 * over the table's pairs, with the observations in lanes. A thread's block
 * holds pointers to the members' rows, the run's strip (m * LANES bytes),
 * the (m, m) table, its entries rounded up to an even number so the uint16
 * codes after it stay aligned, and the member codes: 3.9 KiB for a group of
 * 30 among 90 with uint8 codes and counts, 11.3 KiB for 60 among 240, and
 * 274 KiB for 256 among 257 with uint16 ones.
 *
 * On one thread a group takes about DEPTHS_RUN_PS picoseconds per member
 * pair and run of LANES bytes of lanes, DEPTHS_PAIR_PS per member pair for
 * its member codes and table, and DEPTHS_BASE_NS more: a least-squares fit
 * of relative error over groups of 20 to 256 among 40 to 257, tied and
 * tie-free, within 0.51 to 1.31 times each group's time (AVX-512 clone).
 * The transpose is left out; a call of 100 groups of 40 among 2000 took
 * 1.8 to 3 times the estimate. A call takes one more thread per
 * DEPTHS_GRAIN of that work rather than per GRAIN: its inputs are the
 * pooled codes and the references, a few kilobytes that a new thread reads
 * at once, and two threads ran 100 groups of 30 among 60 (0.19 ms) 27 %
 * faster than one, 50 groups 11 % faster and 20 groups 26 % slower. So the
 * permutation tests' calls of 100 groups of 30 among 90 and among 60 (est.
 * 0.27 and 0.21 ms) take two threads on two or more CPUs, and those of 1000
 * groups of 60 among 240 (est. 15 ms) one per CPU; a call of one group, as
 * depth_ranks makes, takes one. */
enum { DEPTHS_RUN_PS = 680, DEPTHS_PAIR_PS = 1370, DEPTHS_BASE_NS = 260, DEPTHS_GRAIN = 100000 };

/* One pair's step of the pass for one run of LANES observations, whose
 * least admissible counts so far are `lane`: qa and qb are members a and
 * b's codes in those observations, ab = table[a, b] and ba = table[b, a],
 * and LANE is the wider of the code and count types. On a table without
 * ties each observation admits exactly one of (a, b) and (b, a), so a pair
 * a < b takes one compare per lane; on a tied one, each ordered pair takes
 * one, and a pair not admitted reads LANE's greatest value. The diagonal,
 * m, is where every lane starts, so it changes no lane.
 *
 * NAME_pass takes one run of observations at a time, so that its lanes
 * stay in registers while every pair streams past. gcc's unroll-and-jam
 * fused two pairs' steps into one loop that it left scalar, in every
 * clone, and groups of 30 among 90 took about 30 times as long; the pass is
 * built without it. */
#define DEPTHS(C, K, CODE, COUNT, LANE)                                        \
    static inline void depths_##C##_##K##_untied(LANE *restrict lane,          \
                                                 const CODE *restrict qa,      \
                                                 const CODE *restrict qb, LANE ab, LANE ba) \
    {                                                                          \
        for (int64_t c = 0; c < LANES; c++) {                                  \
            LANE x = qa[c] <= qb[c] ? ab : ba;                                 \
            lane[c] = x < lane[c] ? x : lane[c];                               \
        }                                                                      \
    }                                                                          \
                                                                               \
    static inline void depths_##C##_##K##_tied(LANE *restrict lane,            \
                                               const CODE *restrict qa,        \
                                               const CODE *restrict qb, LANE ab) \
    {                                                                          \
        for (int64_t c = 0; c < LANES; c++) {                                  \
            LANE x = qa[c] <= qb[c] ? ab : (LANE)-1;                           \
            lane[c] = x < lane[c] ? x : lane[c];                               \
        }                                                                      \
    }                                                                          \
                                                                               \
    CLONES __attribute__((optimize("no-loop-unroll-and-jam")))                 \
    static void depths_##C##_##K##_pass(const CODE *const *col, int64_t total, int64_t m, \
                                        const COUNT *table, int distinct, COUNT *out) \
    {                                                                          \
        for (int64_t y0 = 0; y0 < total; y0 += LANES) {                        \
            LANE lane[LANES] __attribute__((aligned(LANES)));                  \
            for (int64_t c = 0; c < LANES; c++)                                \
                lane[c] = (LANE)m;                                             \
            for (int64_t a = 0; a < m; a++) {                                  \
                const CODE *qa = col[a] + y0;                                  \
                const COUNT *row = table + a * m;                              \
                if (distinct)                                                  \
                    for (int64_t b = a + 1; b < m; b++)                        \
                        depths_##C##_##K##_untied(lane, qa, col[b] + y0, row[b], \
                                                  table[b * m + a]);           \
                else                                                           \
                    for (int64_t b = 0; b < m; b++)                            \
                        depths_##C##_##K##_tied(lane, qa, col[b] + y0, row[b]); \
            }                                                                  \
            for (int64_t c = 0; c < LANES && y0 + c < total; c++)              \
                out[y0 + c] = (COUNT)lane[c];                                  \
        }                                                                      \
    }                                                                          \
                                                                               \
    static int depths_##C##_##K##_group(void *arg, int64_t r,                  \
                                        unsigned char *block)                  \
    {                                                                          \
        const struct depths_args *args = arg;                                  \
        int64_t m = args->m;                                                   \
        const int64_t *ref = args->refs + r * m;                               \
        const CODE **col = (const CODE **)block;                               \
        CODE *strip = (CODE *)(block + (m * (int64_t)sizeof *col + LANES - 1) / LANES * LANES); \
        COUNT *table = (COUNT *)(strip + m * LANES / sizeof(CODE));            \
        CODE *members = (CODE *)(table + m * m + m % 2);                       \
        for (int64_t a = 0; a < m; a++)                                        \
            col[a] = (const CODE *)args->cols + ref[a] * args->stride;         \
        for (int64_t i = 0; i < m; i++)                                        \
            for (int64_t j = 0; j < m; j++)                                    \
                members[i * m + j] = col[j][ref[i]];                           \
        for (int64_t s0 = 0; s0 < m; s0 += LANES / sizeof(CODE))               \
            table_##C##_##K##_run(members, m, m, args->distinct, s0, strip, table); \
        depths_##C##_##K##_pass(col, args->total, m, table, args->distinct,    \
                                (COUNT *)args->out + r * args->total);         \
        return 1;                                                              \
    }                                                                          \
                                                                               \
    int depths_##C##_##K(const CODE *codes, int64_t total,                     \
                         const int64_t *refs, int64_t n_refs, int64_t m,       \
                         int distinct, COUNT *out, int64_t threads)            \
    {                                                                          \
        int64_t width = (total + LANES - 1) / LANES * LANES;                   \
        int64_t stride = (width * (int64_t)sizeof(CODE) / LANES | 1) * LANES / sizeof(CODE); \
        CODE *cols;                                                            \
        if (posix_memalign((void **)&cols, ALIGN, total * stride * sizeof(CODE)) != 0) \
            return -1;                                                         \
        for (int64_t y0 = 0; y0 < total; y0 += LANES)                          \
            for (int64_t x = 0; x < total; x++)                                \
                for (int64_t y = y0; y < total && y < y0 + LANES; y++)         \
                    cols[x * stride + y] = codes[y * total + x];               \
        for (int64_t x = 0; x < total; x++)                                    \
            memset(cols + x * stride + total, 0, (width - total) * sizeof(CODE)); \
        struct depths_args args = {cols, refs, total, stride, m, distinct, out}; \
        int64_t bytes = (m * (int64_t)sizeof(CODE *) + LANES - 1) / LANES * LANES \
                        + m * LANES + (m * m + m % 2) * (int64_t)sizeof(COUNT) \
                        + m * m * (int64_t)sizeof(CODE);                       \
        int64_t runs = width * (int64_t)sizeof(CODE) / LANES;                  \
        int done = run_units(depths_##C##_##K##_group, &args, n_refs, bytes, threads, \
                             n_refs * (m * m * (runs * DEPTHS_RUN_PS + DEPTHS_PAIR_PS) / 1000 \
                                       + DEPTHS_BASE_NS),                      \
                             DEPTHS_GRAIN);                                    \
        free(cols);                                                            \
        return done;                                                           \
    }

DEPTHS(u8, u8, uint8_t, uint8_t, uint8_t)
DEPTHS(u8, u16, uint8_t, uint16_t, uint16_t)
DEPTHS(u16, u8, uint16_t, uint8_t, uint16_t)
DEPTHS(u16, u16, uint16_t, uint16_t, uint16_t)

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
