/* The compiled library: the greedy walk's step loop gw_walk, three
 * linear passes over a walk for analysis.py (the lemma audits gw_audit,
 * the deficiency records gw_deficiency and the cluster-visit table
 * gw_cluster_visits) and gw_summary, a sweep run's counts over those
 * passes in one call.  walk.py builds this file into a shared library and
 * loads it through ctypes; run_walk calls gw_walk and builds the
 * Trajectory from what it writes, analysis.audit_lemmas, compute_Dx and
 * cluster_visits call the passes, and analysis.summary_counts calls
 * gw_summary.  Where the library does not build, they raise OSError;
 * gwlab has no other engine.
 *
 * Every walk starts at the origin on line 0, its step 0.  The passes read
 * lines that Realization keeps finite, strictly increasing, read-only and
 * contiguous, so they never check them.  Each returns 1 for
 * a run it does not read (every one refuses a visit step that is neither
 * -1 nor a step of the prefix; gw_summary returns 1, 4 or 3 by the pass
 * that refused) and 2 when memory runs out; analysis.py raises
 * ValidationError and MemoryError for them.
 *
 * tests/oracles.py holds each entry's reference, python_loop being gw_walk
 * line for line in Python and summarize_reference gw_summary's; a change
 * to an entry keeps its reference equal to it, in what it refuses too.
 *
 * Every double must equal Python's and numpy's bit for bit: each distance
 * and deficiency term is computed in the expression order of the Python
 * code, the build turns floating-point contraction off (no fused
 * multiply-add), and a target that evaluates doubles in wider precision
 * (x87) refuses to build.
 *
 * Both lines sit in one flat table [-inf, line0..., +inf, -inf, line1...,
 * +inf]; a sentinel is never visited, so a search along a line ends at a
 * point or at the sentinel, and a step of inf means every point is
 * visited. */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "the step loop needs double expressions evaluated in double"
#endif

enum { SINGLE_LINE, INTERSECTING, PARALLEL };

typedef struct {
    int kind;
    double r, cos_alpha;
    double lo[2], hi[2]; /* the window ends per line */
} Space;

/* cross_distance: from abscissa u on one line to v on the other */
static double cross(const Space *sp, double u, double v)
{
    if (sp->kind == PARALLEL) {
        double du = u - v;
        return sqrt(du * du + sp->r * sp->r);
    }
    return sqrt(fabs(u * u + v * v - 2.0 * u * v * sp->cos_alpha));
}

/* where abscissa u projects onto the other line */
static double centre(const Space *sp, double u)
{
    return sp->kind == INTERSECTING ? u * sp->cos_alpha : u;
}

/* Python's min(a, b), as stop_margin takes it */
static double min2(double a, double b) { return b < a ? b : a; }

/* stop_margin: the shortest distance from u on `line` to any location
 * outside the windows.  Only two kinds of term can bind.  The own line's
 * window ends, and on parallel lines the cross term from h, the distance
 * along the line from u to the other window's nearer end; where h < 0, u
 * lies outside the other window, so the own-line term is below |s| < r
 * and wins.  On intersecting lines both windows are (-L, L), and by the
 * triangle inequality a place on the other line outside its window is at
 * least L - |u| away, the own-line term. */
static double margin(const Space *sp, double u, int line)
{
    int o = 1 - line;
    double m = min2(u - sp->lo[line], sp->hi[line] - u);
    if (sp->kind == PARALLEL)
        m = min2(m, cross(sp, min2(u - sp->lo[o], sp->hi[o] - u), 0.0));
    return m;
}

/* bisect_left over one line's points, which lie strictly between its
 * sentinels F[lo] = -inf and F[hi] = +inf: the first index k > lo with
 * F[k] >= x.  The search gallops out from a guess h in [lo, hi], the
 * walk's last index on this line, and then bisects, so an answer near the
 * guess costs a few probes. */
static int64_t bisect(const double *F, int64_t lo, int64_t hi, int64_t h,
                      double x)
{
    int64_t a, b, mid, w = 1; /* F[a] < x <= F[b] */
    if (F[h] < x) {
        for (a = h, b = h + 1; b < hi && F[b] < x; b = a + w) {
            a = b;
            w *= 2;
        }
        if (b > hi)
            b = hi;
    } else {
        for (b = h, a = h - 1; a > lo && F[a] >= x; a = b - w) {
            b = a;
            w *= 2;
        }
        if (a < lo)
            a = lo;
    }
    while (b - a > 1) {
        mid = a + (b - a) / 2;
        if (F[mid] < x)
            a = mid;
        else
            b = mid;
    }
    return b;
}

/* the first unvisited index reached from j along link, re-linking every
 * visited index passed on the way to it (path compression) */
static int64_t skip(const int64_t *vis, int64_t *link, int64_t j)
{
    int64_t k = j, next;
    while (vis[k] >= 0)
        k = link[k];
    while (vis[j] >= 0) {
        next = link[j];
        link[j] = k;
        j = next;
    }
    return k;
}

/* Walk from the origin on line 0 over the flat table F of n0 + n1 points
 * drawn on the windows [lo0, hi0] and [lo1, hi1], stopping at the first
 * step whose distance reaches the stop margin when truncating, else when
 * every point is visited.  prv and nxt are scratch of n0 + n1 + 4 entries;
 * vis (as many) receives each flat index's 1-based visit step, -1 if
 * unvisited; order and dists (n0 + n1) receive the flat index and the
 * distance of each step.  Returns the step count, which is n0 + n1
 * exactly when every point was visited. */
int64_t gw_walk(const double *F, int64_t n0, int64_t n1, int kind, double r,
                double cos_alpha, double lo0, double hi0, double lo1,
                double hi1, int truncating, int64_t *prv, int64_t *nxt,
                int64_t *vis, int64_t *order, double *dists)
{
    const Space sp = {kind, r, cos_alpha, {lo0, lo1}, {hi0, hi1}};
    const int64_t size = n0 + n1 + 4;
    const int64_t lo[2] = {0, n0 + 2}, hi[2] = {n0 + 1, n0 + n1 + 3};
    int cl = 0, ol = 1, t;
    int64_t k, i, p, s, xp, xs, near[2], step = 0;
    double cu = 0.0, d, d_s, dcp, dcs;
    double m = truncating ? margin(&sp, cu, cl) : INFINITY;

    for (k = 0; k < size; k++) {
        prv[k] = k - 1;
        nxt[k] = k + 1;
        vis[k] = -1;
    }
    near[cl] = s = bisect(F, lo[cl], hi[cl], lo[cl], cu);
    p = s - 1;
    near[ol] = xs = bisect(F, lo[ol], hi[ol], lo[ol], centre(&sp, cu));
    xp = xs - 1;
    for (;;) {
        /* the nearest unvisited point on each side of cu on its own line,
         * then on each side of its projection on the other line; on a tie
         * the lower line wins, then the smaller u (the pred side).  A
         * cross sentinel is inf by index: on intersecting lines the
         * formula is NaN at +-inf */
        dcp = xp == lo[ol] ? INFINITY : cross(&sp, cu, F[xp]);
        dcs = xs == hi[ol] ? INFINITY : cross(&sp, cu, F[xs]);
        d = cu - F[p];
        d_s = F[s] - cu;
        if (d_s < d) {
            d = d_s;
            i = s;
        } else {
            i = p;
        }
        if (dcs < dcp) {
            dcp = dcs;
            xp = xs;
        }
        if (dcp < d || (dcp == d && ol == 0)) {
            d = dcp;
            i = xp;
            t = cl;
            cl = ol;
            ol = t;
        }
        if (d >= m)
            break;
        order[step] = i;
        dists[step] = d;
        vis[i] = ++step;
        p = prv[i];
        s = nxt[i];
        nxt[p] = s;
        prv[s] = p;
        cu = F[i];
        if (truncating)
            m = margin(&sp, cu, cl);
        near[cl] = i;
        near[ol] = xs = bisect(F, lo[ol], hi[ol], near[ol], centre(&sp, cu));
        xp = skip(vis, prv, xs - 1);
        xs = skip(vis, nxt, xs);
    }
    return step;
}

/* 1 unless each of the p visit steps is -1 (never visited) or a step of
 * the prefix, in [1, n]: the rule every pass refuses a run by */
static int off_prefix(const int64_t *vis, int64_t p, int64_t n)
{
    int64_t i;
    for (i = 0; i < p; i++)
        if (vis[i] != -1 && (vis[i] < 1 || vis[i] > n))
            return 1;
    return 0;
}

/* ------------------------------------------------------------------------
 * The lemma audits: the numpy audit of tests/oracles.py (audit_numpy) in
 * one linear pass, with its counts and its violations in its order. */

typedef struct { /* a close cross-line pair that broke too late */
    double x, y, gate, t_break;
} PairViolation;

typedef struct { /* kind 0: replay-max (u, z, expected); kind 1:
                  * empty-interval (c, b_prev, alive_inside) */
    int64_t kind, step;
    double u, ref, value;
} StepViolation;

/* np.maximum.accumulate's step, which keeps the new value on a tie (the
 * sign of a zero shows in b_prev) */
static double max_acc(double acc, double x) { return acc > x ? acc : x; }

/* the root of k in a deletion array: link[k] == k while k is alive, and a
 * deleted k links toward its neighbour; every index passed on the way is
 * re-linked to the root (path compression) */
static int64_t root(int64_t *link, int64_t k)
{
    int64_t r = k, next;
    while (link[r] != r)
        r = link[r];
    while (k != r) {
        next = link[k];
        link[k] = r;
        k = next;
    }
    return r;
}

/* Audit the n steps us (from the origin) over line0 and line1, whose
 * visit steps are vis0 and vis1 (-1: never visited); the pair audit runs
 * when the separation r is positive, which it is on parallel lines only.
 * Writes up to pcap pair violations, in scan order (by i, then j, over the
 * merged table), and up to scap step violations, in step order, and sets
 * counts to the pair, replay and empty-interval checks and the pair and
 * step violations found, all of them even past a capacity.  Returns 0,
 * or 1 when the trajectory is not one this pass can read (a visit step
 * off the prefix, a step given to no point or to two, us[t - 1] not the
 * point visited at t) and 2 when memory runs out; then nothing is
 * written.
 *
 * The points merge into one sorted table mu (line 0 first on a tie), with
 * each point's line and visit step (n + 1 when never visited).  Step t
 * visits mu[q]; at_u..past_u is its run of equal values (at most one per
 * line), and past_z and past_b, where the previous step's shadow and the
 * running max fall in mu, are the previous step's past_u and its running
 * max.  By step t every point visited up to t is deleted from two
 * deletion arrays, which find the last point still alive before past_z
 * (replay-max's witness) and the first one from past_u on (empty-interval's
 * witness). */
int gw_audit(const double *line0, int64_t n0, const double *line1,
             int64_t n1, const int64_t *vis0, const int64_t *vis1,
             const double *us, int64_t n, double r,
             PairViolation *pv, int64_t pcap, StepViolation *sv,
             int64_t scap, int64_t *counts)
{
    const int64_t m = n0 + n1, never = n + 1;
    int64_t i, j, k, t, q, at_u, past_u, past_z, past_b, gate, brk;
    int64_t *ms, *pos, *nx, *pr, *up, *down;
    int64_t npv = 0, nsv = 0, checks[3] = {0, 0, 0};
    double *mu, a, b, z, u, run;
    unsigned char *ml;
    void *mem;

    if (off_prefix(vis0, n0, n) || off_prefix(vis1, n1, n))
        return 1;
    mem = malloc((size_t)(5 * m + n + 3) * sizeof(int64_t)
                 + (size_t)m * (sizeof(double) + 1));
    if (mem == NULL)
        return 2;
    ms = mem;
    pos = ms + m;  /* n + 1: the merged index visited at step t */
    nx = pos + n + 1;  /* m + 1: the next-alive links, m a sentinel */
    pr = nx + m + 1;  /* m + 1: the last-alive links of k at k + 1 */
    up = pr + m + 1;  /* m: the first passage of the running max */
    down = up + m;  /* m: the first passage of the running min */
    mu = (double *)(down + m);
    ml = (unsigned char *)(mu + m);

    for (i = j = k = 0; k < m; k++) {
        int l = i == n0 || (j < n1 && line1[j] < line0[i]);
        int64_t v = l ? vis1[j] : vis0[i];
        mu[k] = l ? line1[j++] : line0[i++];
        ml[k] = (unsigned char)l;
        ms[k] = v < 1 ? never : v;
    }
    for (t = 0; t <= n; t++)
        pos[t] = -1;
    for (k = 0; k < m; k++) {
        if (ms[k] == never)
            continue;
        if (pos[ms[k]] >= 0)
            goto bad;
        pos[ms[k]] = k;
    }
    for (t = 1; t <= n; t++)
        if (pos[t] < 0 || !(us[t - 1] == mu[pos[t]]))
            goto bad;

    if (r > 0.0) {
        /* first passages, 0 at the origin and never beyond the prefix:
         * each level's is the first step at which the running max is
         * >= it (up) or the running min <= it (down) */
        for (t = 0, run = 0.0, k = 0; k < m; k++) {
            while (t <= n && run < mu[k])
                if (++t <= n && us[t - 1] > run)
                    run = us[t - 1];
            up[k] = t;
        }
        for (t = 0, run = 0.0, k = m - 1; k >= 0; k--) {
            while (t <= n && run > mu[k])
                if (++t <= n && us[t - 1] < run)
                    run = us[t - 1];
            down[k] = t;
        }
        /* mu[j] - mu[i] grows with j, so the scan stops at the first gap
         * past r */
        for (i = 0; i < m; i++) {
            for (j = i + 1; j < m && mu[j] - mu[i] <= r; j++) {
                if (!(mu[j] - mu[i] > 0.0) || ml[i] == ml[j])
                    continue;
                checks[0]++;
                gate = down[i] > up[j] ? down[i] : up[j];
                brk = ms[i] < ms[j] ? ms[i] : ms[j];
                if (gate <= n && gate < brk && npv++ < pcap)
                    pv[npv - 1] = (PairViolation){
                        mu[i], mu[j], (double)gate,
                        brk == never ? INFINITY : (double)brk};
            }
        }
    }

    for (k = 0; k <= m; k++)
        nx[k] = pr[k] = k;
    for (i = 0, past_z = 0; i < m; i++) /* where the origin falls in mu */
        past_z += mu[i] <= 0.0;
    past_b = past_z;
    a = b = z = 0.0;
    for (t = 1; t <= n; t++) {
        q = pos[t];
        u = us[t - 1];
        nx[q] = q + 1;
        pr[q + 1] = q;
        at_u = q > 0 && mu[q - 1] == u ? q - 1 : q;
        past_u = q + 1 < m && mu[q + 1] == u ? q + 2 : q + 1;
        if (a <= u && u <= z) {
            /* every shadow in (u, z] was visited before t */
            checks[1]++;
            k = root(pr, past_z) - 1;
            if (k >= past_u && nsv++ < scap)
                sv[nsv - 1] = (StepViolation){0, t, u, z, mu[k]};
        }
        if (ms[at_u] <= t && ms[past_u - 1] <= t && z >= u && a < u) {
            /* no twin at u outlives t: (u, b] is empty after t */
            checks[2]++;
            k = root(nx, past_u);
            if (k < past_b && nsv++ < scap)
                sv[nsv - 1] = (StepViolation){1, t, u, b, mu[k]};
        }
        if (u < a)
            a = u;
        if (u >= b)
            past_b = past_u;
        b = max_acc(b, u);
        z = u;
        past_z = past_u;
    }
    free(mem);
    counts[0] = checks[0];
    counts[1] = checks[1];
    counts[2] = checks[2];
    counts[3] = npv;
    counts[4] = nsv;
    return 0;
bad:
    free(mem);
    return 1;
}

/* ------------------------------------------------------------------------
 * The deficiency records: the numpy compute_Dx of tests/oracles.py
 * (compute_Dx_numpy) in one linear pass, with its values bit for bit. */

/* np.maximum's step: a NaN on either side wins */
static double max_nan(double acc, double x)
{
    return acc >= x || isnan(acc) ? acc : x;
}

/* Records at the m ascending positive levels xs over line0 and line1,
 * whose visit steps are vis0 and vis1 (-1: never visited), for the n
 * steps us from the origin.  Writes the rows t_ray (each level's
 * first passage into [x, inf), inf beyond the prefix) and value of a
 * 2 x m table, each level's interior count to n_interior, and the first
 * passage below 0 to *t_left.  Returns 0, or 1 when the trajectory is not
 * one this pass can read (a visit step off the prefix, a NaN step) and 2
 * when memory runs out.
 *
 * The decided, non-degenerate levels are the prefix with t_ray < t_left.
 * The positive base points come in ascending order from a merge of the
 * two lines, each with the step its last copy was visited (inf when some
 * copy was not); a point b is interior at the levels x > b whose t_ray is
 * at most that step, a contiguous run [lo, hi) of that prefix.  Each
 * level keeps the previous interior point prev (0 at first) and the max
 * of its terms 2*b - prev - x, closed by 2*x - prev - x; the pair (x, 0)
 * that numpy's table puts between two levels is below the closing term
 * (or it is NaN), so it is left out. */
int gw_deficiency(const double *line0, int64_t n0, const double *line1,
                  int64_t n1, const int64_t *vis0, const int64_t *vis1,
                  const double *us, int64_t n, const double *xs, int64_t m,
                  double *table, int64_t *n_interior, double *t_left)
{
    int64_t i, j, k, t, lo, hi, mid, nd, tl = n + 1;
    double b, last, run, *prev, *t_ray = table, *value = table + m;

    if (off_prefix(vis0, n0, n) || off_prefix(vis1, n1, n))
        return 1;
    for (t = 1; t <= n; t++) {
        if (isnan(us[t - 1]))
            return 1;
        if (us[t - 1] < 0.0 && tl > n)
            tl = t;
    }
    prev = malloc((size_t)(m > 0 ? m : 1) * sizeof(double));
    if (prev == NULL)
        return 2;
    *t_left = tl <= n ? (double)tl : INFINITY;
    for (t = 0, run = 0.0, nd = 0, i = 0; i < m; i++) {
        while (t <= n && run < xs[i])
            if (++t <= n && us[t - 1] > run)
                run = us[t - 1];
        t_ray[i] = t <= n ? (double)t : INFINITY;
        if (t < tl)
            nd = i + 1;
        value[i] = t < tl ? -INFINITY : tl < t ? 0.0 : NAN;
        prev[i] = 0.0;
        n_interior[i] = 0;
    }
    for (i = j = lo = 0; i < n0 || j < n1;) {
        if (j == n1 || (i < n0 && line0[i] < line1[j])) {
            b = line0[i];
            last = vis0[i] >= 1 ? (double)vis0[i] : INFINITY;
            i++;
        } else if (i == n0 || line1[j] < line0[i]) {
            b = line1[j];
            last = vis1[j] >= 1 ? (double)vis1[j] : INFINITY;
            j++;
        } else {
            b = line0[i];
            last = vis0[i] >= 1 && vis1[j] >= 1
                       ? (double)(vis0[i] > vis1[j] ? vis0[i] : vis1[j])
                       : INFINITY;
            i++;
            j++;
        }
        if (!(b > 0.0))
            continue;
        while (lo < nd && xs[lo] <= b)
            lo++;
        for (k = lo, hi = nd; k < hi;) { /* the first t_ray past last */
            mid = k + (hi - k) / 2;
            if (t_ray[mid] <= last)
                k = mid + 1;
            else
                hi = mid;
        }
        for (k = lo; k < hi; k++) {
            value[k] = max_nan(value[k], 2.0 * b - prev[k] - xs[k]);
            prev[k] = b;
            n_interior[k]++;
        }
    }
    for (k = 0; k < nd; k++)
        value[k] = max_nan(value[k], 2.0 * xs[k] - prev[k] - xs[k]);
    free(prev);
    return 0;
}

/* ------------------------------------------------------------------------
 * The cluster-visit table: the numpy cluster_visits of tests/oracles.py
 * (cluster_visits_numpy) in one pass over the clusters. */

/* How the n steps met the k clusters that begin at starts over p indexes,
 * each of whose copies on line 0 and line 1 was visited at vis0 and vis1
 * (-1: never).  Writes the rows count, first, last, entry line, entry
 * index, exit line and exit index of a 7 x k table, and the rows
 * consecutive and undecided of a 2 x k one.  Returns 0, or 1 when the
 * input is not one this pass reads (starts not 0 then strictly increasing
 * below p, a visit step neither -1 nor in [1, n]) and 2 when memory runs
 * out.
 *
 * As in numpy, a step maps to the copy written last for it, line 0's
 * copies first and each line in index order, and step 0 to (-1, -1);
 * last is the max of the raw visit steps, and first is -1 where no copy
 * was visited. */
int gw_cluster_visits(const int64_t *vis0, const int64_t *vis1, int64_t p,
                      const int64_t *starts, int64_t k, int64_t n,
                      int64_t *table, unsigned char *verdicts)
{
    int64_t c, i, end, size, count, first, last, *copy;
    const int64_t *vis[2] = {vis0, vis1};
    int line, run;

    for (c = 0; c < k; c++)
        if (starts[c] >= p || (c ? starts[c] <= starts[c - 1] : starts[c]))
            return 1;
    if (off_prefix(vis0, p, n) || off_prefix(vis1, p, n))
        return 1;
    copy = malloc((size_t)(n + 1) * sizeof(int64_t));
    if (copy == NULL)
        return 2;
    for (i = 0; i <= n; i++)
        copy[i] = -1;
    for (line = 0; line < 2; line++) /* the copy of each step, as 2i + line */
        for (i = 0; i < p; i++)
            if (vis[line][i] >= 1)
                copy[vis[line][i]] = 2 * i + line;
    for (c = 0; c < k; c++) {
        end = c + 1 < k ? starts[c + 1] : p;
        size = end - starts[c];
        count = 0;
        first = INT64_MAX;
        last = INT64_MIN;
        for (i = starts[c]; i < end; i++)
            for (line = 0; line < 2; line++) {
                int64_t v = vis[line][i];
                if (v > last)
                    last = v;
                if (v >= 1) {
                    count++;
                    if (v < first)
                        first = v;
                }
            }
        if (count == 0)
            first = -1;
        table[c] = count;
        table[k + c] = first;
        table[2 * k + c] = last;
        /* step 0 when no copy was visited, which maps to (-1, -1) */
        for (i = 0; i < 2; i++) {
            int64_t at = copy[count > 0 ? (i ? last : first) : 0];
            table[(3 + 2 * i) * k + c] = at < 0 ? -1 : at % 2;
            table[(4 + 2 * i) * k + c] = at < 0 ? -1 : at / 2;
        }
        /* the copies took consecutive steps, all of them or up to the end */
        run = count > 0 && last - first + 1 == count;
        verdicts[c] = (unsigned char)(run && count == 2 * size);
        verdicts[k + c] = (unsigned char)(run && count < 2 * size
                                          && last == n);
    }
    free(copy);
    return 0;
}

/* ------------------------------------------------------------------------
 * A sweep run's summary: the counts experiments.summarize_run reports, in
 * one call over the passes above.  Its reference is the composition of
 * analysis functions it replaced (summarize_reference in tests/oracles.py):
 * detect_A_events, then audit_lemmas, detect_crossings and
 * extract_halfline_changes.  It refuses the runs that composition refuses,
 * by the pass that refuses them first. */

enum { NO_EVENTS, DUPLICATED, THINNED, SHIFTED }; /* the event families */
enum { REFUSED_DX = 1, NO_MEMORY = 2, REFUSED_AUDIT = 3, REFUSED_CLUSTER = 4 };

/* a pass's status as gw_summary's: 1 becomes `refused` */
static int status_of(int status, int refused)
{
    return status == 1 ? refused : status;
}

/* numpy's floor division of a >= 0 by b > 0 (npy_divmod, which Python's
 * // matches): the quotient of a - fmod(a, b), snapped to the nearest
 * integer, not floor(a / b); 1.0 // 0.1 is 9 */
static int64_t floor_div(double a, double b)
{
    double div = (a - fmod(a, b)) / b, fl = floor(div);
    return (int64_t)(div - fl > 0.5 ? fl + 1.0 : fl);
}

static int by_value(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* The occurred band events of a duplicated pair, whose lines both hold
 * the p points pts: analysis._band_events.  The clusters of pts at gap
 * threshold r, each led by its member nearest the global lead jstar,
 * ordered by their first visit step (stably: by index on a tie, which only
 * a malformed run has), give the reduced walk's lead shadows u; a band
 * u // r is witnessed when some u >= 0 in it is followed by a u < 0, and
 * *found counts the distinct witnessed bands. */
static int band_events(const double *pts, int64_t p, const int64_t *vis0,
                       const int64_t *vis1, int64_t n, double r,
                       int64_t *found)
{
    const int64_t q = p > 0 ? p : 1;
    int64_t c, i, k, t, m, jstar, lead, prev_lead;
    int64_t *starts, *table, *head, *seq, *bands;
    unsigned char *verdicts;
    int status;
    void *mem = malloc((size_t)(10 * q + n + 2) * sizeof(int64_t)
                       + (size_t)(2 * q));

    if (mem == NULL)
        return NO_MEMORY;
    starts = mem;
    table = starts + q;  /* 7 x k: count, first, ... */
    head = table + 7 * q;  /* n + 2: clusters first visited before t */
    seq = head + n + 2;  /* the entered clusters, by first visit */
    bands = seq + q;  /* the witnessed bands */
    verdicts = (unsigned char *)(bands + q);

    for (k = 0, i = 0; i < p; i++)
        if (i == 0 || pts[i] - pts[i - 1] >= r)
            starts[k++] = i;
    status = gw_cluster_visits(vis0, vis1, p, starts, k, n, table, verdicts);
    if (status) {
        free(mem);
        return status_of(status, REFUSED_CLUSTER);
    }
    for (jstar = 0; jstar < p && pts[jstar] < 0.0; jstar++)
        ;
    if (jstar == p || (jstar > 0 && -pts[jstar - 1] < pts[jstar]))
        jstar--;

    for (t = 0; t <= n + 1; t++)
        head[t] = 0;
    for (c = 0; c < k; c++)
        if (table[c] > 0)
            head[table[k + c] + 1]++;
    for (t = 1; t <= n + 1; t++)
        head[t] += head[t - 1];
    for (c = 0; c < k; c++)
        if (table[c] > 0)
            seq[head[table[k + c]]++] = c;
    m = head[n + 1];

    *found = 0;
    for (i = 0, prev_lead = -1; i < m; i++) {
        c = seq[i];
        lead = jstar < starts[c] ? starts[c] : jstar;
        t = (c + 1 < k ? starts[c + 1] : p) - 1;
        lead = lead < t ? lead : t;
        if (prev_lead >= 0 && pts[prev_lead] >= 0.0 && pts[lead] < 0.0)
            bands[(*found)++] = floor_div(pts[prev_lead], r);
        prev_lead = lead;
    }
    qsort(bands, (size_t)*found, sizeof(int64_t), by_value);
    for (i = k = 0; i < *found; i++)
        k += i == 0 || bands[i] != bands[i - 1];
    *found = k;
    free(mem);
    return 0;
}

/* The occurred gap events over the p sorted points pts of the lines
 * line0 and line1 walked by the n steps us: analysis._gap_events.  For the
 * k-th positive point x with successor x', the event occurs when the gap
 * x' - x is wider than the deficiency at x + offset, minus the anchor (the
 * last point <= 0) and plus extra, in that order; it needs the anchor and
 * a decided deficiency level.  Only gaps wider than extra get a level, but
 * the deficiency pass runs, and refuses, without any. */
static int gap_events(const double *pts, int64_t p, double offset,
                      double extra, const double *line0, int64_t n0,
                      const double *line1, int64_t n1, const int64_t *vis0,
                      const int64_t *vis1, const double *us, int64_t n,
                      int64_t *found)
{
    int64_t i, j, lo, m;
    double *xs, *table, t_left, anchor;
    int status;
    void *mem;

    for (lo = 0; lo < p && pts[lo] <= 0.0; lo++)
        ;
    for (m = 0, i = lo; i + 1 < p; i++)
        m += pts[i + 1] - pts[i] > extra;
    mem = malloc((size_t)(m > 0 ? m : 1) * (3 * sizeof(double)
                                            + sizeof(int64_t)));
    if (mem == NULL)
        return NO_MEMORY;
    xs = mem;
    table = xs + m;  /* 2 x m: t_ray, value */
    for (j = 0, i = lo; i + 1 < p; i++)
        if (pts[i + 1] - pts[i] > extra)
            xs[j++] = pts[i] + offset;
    status = gw_deficiency(line0, n0, line1, n1, vis0, vis1, us, n, xs, m,
                           table, (int64_t *)(table + 2 * m), &t_left);
    *found = 0;
    if (status == 0 && lo > 0) {
        anchor = pts[lo - 1];
        for (j = 0, i = lo; i + 1 < p; i++) {
            double gap = pts[i + 1] - pts[i], t_ray, value;
            if (!(gap > extra))
                continue;
            t_ray = table[j];
            value = table[m + j++];
            if ((t_left < t_ray || t_ray < INFINITY)
                && gap > value - anchor + extra)
                (*found)++;
        }
    }
    free(mem);
    return status_of(status, REFUSED_DX);
}

/* The thinned events: the gap events over the union of both lines, the
 * base points, at offset 0 and extra r. */
static int thinned_events(const double *line0, int64_t n0,
                          const double *line1, int64_t n1,
                          const int64_t *vis0, const int64_t *vis1,
                          const double *us, int64_t n, double r,
                          int64_t *found)
{
    int64_t i, j, p;
    int status;
    double *base = malloc((size_t)(n0 + n1 > 0 ? n0 + n1 : 1)
                          * sizeof(double));

    if (base == NULL)
        return NO_MEMORY;
    for (i = j = p = 0; i < n0 || j < n1; p++) {
        if (j == n1 || (i < n0 && line0[i] < line1[j]))
            base[p] = line0[i++];
        else if (i == n0 || line1[j] < line0[i])
            base[p] = line1[j++];
        else {
            base[p] = line0[i++];
            j++;
        }
    }
    status = gap_events(base, p, 0.0, r, line0, n0, line1, n1, vis0, vis1,
                        us, n, found);
    free(base);
    return status;
}

/* The shifted events: the gap events over line 0 at offset s and extra
 * r + s, in the frame u -> -u when s < 0 (mirror_realization and
 * mirror_trajectory: each line negated and reversed, as its visit steps,
 * and the steps negated). */
static int shifted_events(const double *line0, int64_t n0,
                          const double *line1, int64_t n1,
                          const int64_t *vis0, const int64_t *vis1,
                          const double *us, int64_t n, double r, double s,
                          int64_t *found)
{
    int64_t i, *v0, *v1;
    double *l0, *l1, *u;
    int status;
    void *mem;

    if (!(s < 0.0))
        return gap_events(line0, n0, s, r + s, line0, n0, line1, n1, vis0,
                          vis1, us, n, found);
    mem = malloc((size_t)(2 * (n0 + n1) + n + 1) * sizeof(double));
    if (mem == NULL)
        return NO_MEMORY;
    l0 = mem;
    l1 = l0 + n0;
    u = l1 + n1;
    v0 = (int64_t *)(u + n);
    v1 = v0 + n0;
    for (i = 0; i < n0; i++) {
        l0[i] = -line0[n0 - 1 - i];
        v0[i] = vis0[n0 - 1 - i];
    }
    for (i = 0; i < n1; i++) {
        l1[i] = -line1[n1 - 1 - i];
        v1[i] = vis1[n1 - 1 - i];
    }
    for (i = 0; i < n; i++)
        u[i] = -us[i];
    s = -s;
    status = gap_events(l0, n0, s, r + s, l0, n0, l1, n1, v0, v1, u, n,
                        found);
    free(mem);
    return status;
}

/* The counts of an n-step walk over two lines of n0 and n1 points, read
 * from the tables F = [line0, line1, us] (the lines and the steps' shadows)
 * and I = [vis0, vis1, lines, counts] (the visit steps, -1 for never, the
 * steps' lines and room for the four counts): counts[0] the sign changes
 * between consecutive shadows, counts[1] the steps k whose step k + 1 lies
 * on another half-line (line, sign), counts[2] the occurred return events
 * of `family` (0 when NO_EVENTS) and counts[3] the lemma-audit violations
 * (0 unless audit is set).  r is the separation (0 off parallel lines) and
 * s the shift.  Returns 0; 1, 4 or 3 for a run the deficiency, cluster or
 * audit pass refuses, the events' pass first, as the composition runs
 * them; and 2 when memory runs out. */
int gw_summary(const double *F, int64_t n0, int64_t n1, int64_t *I,
               int64_t n, int family, double r, double s, int audit)
{
    const double *line0 = F, *line1 = F + n0, *us = F + n0 + n1;
    const int64_t *vis0 = I, *vis1 = I + n0, *lines = I + n0 + n1;
    int64_t *counts = I + n0 + n1 + n;
    int64_t t, crossings = 0, changes = 0, found = 0, audit_counts[5];
    int status = 0;

    if (family == DUPLICATED)
        status = band_events(line0, n0, vis0, vis1, n, r, &found);
    else if (family == THINNED)
        status = thinned_events(line0, n0, line1, n1, vis0, vis1, us, n, r,
                                &found);
    else if (family == SHIFTED)
        status = shifted_events(line0, n0, line1, n1, vis0, vis1, us, n, r,
                                s, &found);
    if (status)
        return status;
    counts[2] = found;
    counts[3] = 0;
    if (audit) {
        status = gw_audit(line0, n0, line1, n1, vis0, vis1, us, n, r, NULL,
                          0, NULL, 0, audit_counts);
        if (status)
            return status_of(status, REFUSED_AUDIT);
        counts[3] = audit_counts[3] + audit_counts[4];
    }
    for (t = 1; t < n; t++) {
        crossings += (us[t - 1] > 0.0 && us[t] < 0.0)
                     || (us[t - 1] < 0.0 && us[t] > 0.0);
        changes += lines[t - 1] != lines[t]
                   || (us[t - 1] > 0.0) != (us[t] > 0.0);
    }
    counts[0] = crossings;
    counts[1] = changes;
    return 0;
}
