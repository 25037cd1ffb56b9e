/* The compiled library: the greedy walk's step loop gw_walk (run_walk),
 * three linear passes over a walk for analysis.py (the lemma audits
 * gw_audit, the deficiency records gw_deficiency and the cluster-visit
 * table gw_cluster_visits, which audit_lemmas, compute_Dx and
 * cluster_visits call), gw_summary, a run's return events
 * (detect_A_events), gw_sweep (sweep_counts), which walks a chunk of a
 * sweep's runs and counts each walk over those passes through the body it
 * shares with gw_summary, and gw_draw (experiments._run_chunk), which
 * draws that chunk as processes.generate would.  walk.py builds this file
 * into a shared library and loads it through ctypes; where it does not
 * build, they raise OSError, and gwlab has no other engine.
 *
 * Every walk starts at the origin on line 0, its step 0, and every
 * function that reads one takes it as one Run: gw_audit, gw_deficiency and
 * gw_summary build it from the tables analysis._pack fills, and gw_sweep
 * from its walk's scratch; gw_cluster_visits reads a cluster
 * decomposition's visit steps.  The passes read lines that Realization, or
 * gw_draw, keeps finite, strictly increasing and contiguous, so they never
 * check them.  Each returns 1 for a run it does not read (every one
 * refuses a visit step that is neither -1 nor a step of the prefix;
 * gw_summary and gw_sweep give 1, 4 or 3 by the pass that refused),
 * gw_draw BROKEN + i for a run that breaks check_invariants' rule i, and 2
 * when memory runs out; Python raises ValidationError and MemoryError for
 * them.
 *
 * tests/oracles.py holds each entry's reference, python_loop being gw_walk
 * line for line in Python, oracle_events gw_summary's event pass, and
 * gw_sweep's rows are summarize_reference's of run_walk's walk, as
 * gw_draw's packed runs are pack_runs' of generate's draws; a change to an
 * entry keeps its reference equal to it, in what it refuses too.
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
#include <string.h>

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

/* A walk as the passes read it: both lines, of len[0] and len[1] points,
 * each point's visit step (-1: never visited), and the shadow and the line
 * of each of its n steps from the origin. */
typedef struct {
    const double *line[2], *us;
    const int64_t *vis[2], *lines;
    int64_t len[2], n;
} Run;

/* the run as analysis._pack packs it: F = [line0, line1, us] and
 * I = [vis0, vis1, lines, counts], room for five counts */
static Run unpack(const double *F, int64_t n0, int64_t n1, const int64_t *I,
                  int64_t n)
{
    return (Run){{F, F + n0}, F + n0 + n1, {I, I + n0}, I + n0 + n1,
                 {n0, n1}, n};
}

/* 1 unless each visit step of w is -1 (never visited) or a step of the
 * prefix, in [1, n]: the rule every pass refuses a run by */
static int off_prefix(const Run *w)
{
    int64_t i, v, l;
    for (l = 0; l < 2; l++)
        for (i = 0; i < w->len[l]; i++)
            if ((v = w->vis[l][i]) != -1 && (v < 1 || v > w->n))
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

/* Audit the run w; the pair audit runs when the separation r is positive,
 * which it is on parallel lines only.  Writes up to pcap pair violations,
 * in scan order (by i, then j, over the merged table), and up to scap step
 * violations, in step order, and sets counts to the pair, replay and
 * empty-interval checks and the pair and step violations found, all of
 * them even past a capacity.  Returns 0, or 1 when the trajectory is not
 * one this pass can read (a visit step off the prefix, a step given to no
 * point or to two, us[t - 1] not the point visited at t) and 2 when memory
 * runs out; then nothing is written.
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
static int audit_lemmas(const Run *w, double r, PairViolation *pv,
                        int64_t pcap, StepViolation *sv, int64_t scap,
                        int64_t *counts)
{
    const double *line0 = w->line[0], *line1 = w->line[1], *us = w->us;
    const int64_t *vis0 = w->vis[0], *vis1 = w->vis[1];
    const int64_t n0 = w->len[0], n1 = w->len[1], n = w->n;
    const int64_t m = n0 + n1, never = n + 1;
    int64_t i, j, k, t, q, at_u, past_u, past_z, past_b, gate, brk;
    int64_t *ms, *pos, *nx, *pr, *up, *down;
    int64_t npv = 0, nsv = 0, checks[3] = {0, 0, 0};
    double *mu, a, b, z, u, run;
    unsigned char *ml;
    void *mem;

    if (off_prefix(w))
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

/* audit_lemmas over the packed run (unpack), its counts to I's */
int gw_audit(const double *F, int64_t n0, int64_t n1, int64_t *I, int64_t n,
             double r, PairViolation *pv, int64_t pcap, StepViolation *sv,
             int64_t scap)
{
    const Run w = unpack(F, n0, n1, I, n);
    return audit_lemmas(&w, r, pv, pcap, sv, scap, I + n0 + n1 + n);
}

/* ------------------------------------------------------------------------
 * The deficiency records: the numpy compute_Dx of tests/oracles.py
 * (compute_Dx_numpy) in one linear pass, with its values bit for bit. */

/* np.maximum's step: a NaN on either side wins */
static double max_nan(double acc, double x)
{
    return acc >= x || isnan(acc) ? acc : x;
}

/* Records at the m ascending positive levels xs over the run w.  Writes
 * the rows t_ray (each level's first passage into [x, inf), inf beyond the
 * prefix) and value of a 2 x m table, each level's interior count to
 * n_interior, and the first passage below 0 to *t_left.  Returns 0, or 1
 * when the trajectory is not one this pass can read (a visit step off the
 * prefix, a NaN step) and 2 when memory runs out.
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
static int deficiency_records(const Run *w, const double *xs, int64_t m,
                              double *table, int64_t *n_interior,
                              double *t_left)
{
    const double *line0 = w->line[0], *line1 = w->line[1], *us = w->us;
    const int64_t *vis0 = w->vis[0], *vis1 = w->vis[1];
    const int64_t n0 = w->len[0], n1 = w->len[1], n = w->n;
    int64_t i, j, k, t, lo, hi, mid, nd, tl = n + 1;
    double b, last, run, *prev, *t_ray = table, *value = table + m;

    if (off_prefix(w))
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

/* deficiency_records over the packed run (unpack) */
int gw_deficiency(const double *F, int64_t n0, int64_t n1, const int64_t *I,
                  int64_t n, const double *xs, int64_t m, double *table,
                  int64_t *n_interior, double *t_left)
{
    const Run w = unpack(F, n0, n1, I, n);
    return deficiency_records(&w, xs, m, table, n_interior, t_left);
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
    const Run w = {{NULL, NULL}, NULL, {vis0, vis1}, NULL, {p, p}, n};
    int64_t c, i, end, size, count, first, last, *copy;
    int line, run;

    for (c = 0; c < k; c++)
        if (starts[c] >= p || (c ? starts[c] <= starts[c - 1] : starts[c]))
            return 1;
    if (off_prefix(&w))
        return 1;
    copy = malloc((size_t)(n + 1) * sizeof(int64_t));
    if (copy == NULL)
        return 2;
    for (i = 0; i <= n; i++)
        copy[i] = -1;
    for (line = 0; line < 2; line++) /* the copy of each step, as 2i + line */
        for (i = 0; i < p; i++)
            if (w.vis[line][i] >= 1)
                copy[w.vis[line][i]] = 2 * i + line;
    for (c = 0; c < k; c++) {
        end = c + 1 < k ? starts[c + 1] : p;
        size = end - starts[c];
        count = 0;
        first = INT64_MAX;
        last = INT64_MIN;
        for (i = starts[c]; i < end; i++)
            for (line = 0; line < 2; line++) {
                int64_t v = w.vis[line][i];
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
 * The return events and a sweep run's summary: summarize, in one call
 * over the passes above, counts what a sweep's row reports and, given a
 * table, writes a run's events, the one implementation of their rule;
 * gw_summary calls it for analysis.detect_A_events. */

enum { NO_EVENTS, DUPLICATED, THINNED, SHIFTED }; /* the event families */
enum { REFUSED_DX = 1, NO_MEMORY = 2, REFUSED_AUDIT = 3, REFUSED_CLUSTER = 4,
       BROKEN = 5 }; /* BROKEN + i: gw_draw's, for check_invariants' rule i */

/* A run's events: found counts the occurred ones, and rows is the length
 * of their table, which is written when f is not NULL and it fits in cap
 * rows.  The table is six columns of doubles at f, x, next_x, gap, rhs,
 * dx and ray_x (NaN where not computed), then four of bytes at b,
 * occurred (1, 0, or -1 for undecided), note, degenerate and entered. */
typedef struct {
    double *f;
    int8_t *b;
    int64_t cap, rows, found;
} Events;

static void put_row(Events *ev, int64_t k, const double *d, const int8_t *b)
{
    int i;
    for (i = 0; i < 6; i++)
        ev->f[i * ev->cap + k] = d[i];
    for (i = 0; i < 4; i++)
        ev->b[i * ev->cap + k] = b[i];
}

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

/* The band events of the run w of a duplicated pair, whose lines both hold
 * the p points pts.  The clusters of pts at gap threshold r, each led by
 * its member nearest the global lead jstar, ordered by their first visit
 * step (stably: by index on a tie, which only a malformed run has), give
 * the reduced walk's lead shadows u.  A row per band u // r, 0 up to the
 * highest a u >= 0 entered, is witnessed (1, else -1) when some u >= 0 in
 * it is followed by a u < 0; found counts the distinct witnessed bands. */
static int band_events(const Run *w, double r, Events *ev)
{
    const double *pts = w->line[0];
    const int64_t p = w->len[0], n = w->n, q = p > 0 ? p : 1;
    int64_t c, i, k, t, m, nb, jstar, lead;
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

    starts[0] = 0;
    for (k = p > 0, i = 1; i < p; i++)
        if (pts[i] - pts[i - 1] >= r)
            starts[k++] = i;
    status = gw_cluster_visits(w->vis[0], w->vis[1], p, starts, k, n, table,
                               verdicts);
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

    for (i = nb = 0; i < m; i++) { /* each lead's band, -1 for a u < 0 */
        c = seq[i];
        lead = jstar < starts[c] ? starts[c] : jstar;
        t = (c + 1 < k ? starts[c + 1] : p) - 1;
        lead = lead < t ? lead : t;
        seq[i] = pts[lead] >= 0.0 ? floor_div(pts[lead], r) : -1;
        ev->rows = seq[i] < ev->rows ? ev->rows : seq[i] + 1;
        if (i > 0 && seq[i - 1] >= 0 && seq[i] < 0)
            bands[nb++] = seq[i - 1];
    }
    qsort(bands, (size_t)nb, sizeof(int64_t), by_value);
    for (i = 0; i < nb; i++)
        ev->found += i == 0 || bands[i] != bands[i - 1];
    if (ev->f != NULL && ev->rows <= ev->cap) {
        for (t = 0; t < ev->rows; t++)
            put_row(ev, t, (const double[]){NAN, NAN, NAN, NAN, NAN, NAN},
                    (const int8_t[]){-1, 0, 0, 0});
        for (i = 0; i < m; i++)
            if (seq[i] >= 0)
                ev->b[3 * ev->cap + seq[i]] = 1;
        for (i = 0; i < nb; i++)
            ev->b[bands[i]] = 1;
    }
    free(mem);
    return 0;
}

/* The gap events of the run w over the p sorted points pts, a row per
 * positive point x with a successor x'.  A gap x' - x no wider than extra
 * does not occur (0).  A wider one is undecided (-1) without the anchor,
 * the last point <= 0 (note 1), or a decided deficiency level at
 * x + offset (note 2); else it occurs when the gap is wider than
 * rhs = dx - anchor + extra, in that order, dx being the level's value,
 * with its degenerate flag and ray_x = x'.  The deficiency pass runs, and
 * refuses, without any level. */
static int gap_events(const double *pts, int64_t p, double offset,
                      double extra, const Run *w, Events *ev)
{
    int64_t i, j, lo, m;
    double *xs, *table, t_left;
    int status, write;
    void *mem;

    for (lo = 0; lo < p && pts[lo] <= 0.0; lo++)
        ;
    for (m = 0, i = lo; i + 1 < p; i++)
        m += pts[i + 1] - pts[i] > extra;
    mem = calloc((size_t)(m > 0 ? m : 1), 3 * sizeof(double)
                                              + sizeof(int64_t));
    if (mem == NULL)
        return NO_MEMORY;
    xs = mem;
    table = xs + m;  /* 2 x m: t_ray, value */
    for (j = 0, i = lo; i + 1 < p; i++)
        if (pts[i + 1] - pts[i] > extra)
            xs[j++] = pts[i] + offset;
    status = deficiency_records(w, xs, m, table, (int64_t *)(table + 2 * m),
                                &t_left);
    ev->rows = lo + 1 < p ? p - lo - 1 : 0;
    write = ev->f != NULL && ev->rows <= ev->cap;
    for (j = 0, i = lo; status == 0 && i + 1 < p; i++) {
        double gap = pts[i + 1] - pts[i], t_ray, value;
        double d[6] = {pts[i], pts[i + 1], gap, NAN, NAN, NAN};
        int8_t b[4] = {0, 0, 0, 0};
        if (gap > extra) {
            t_ray = table[j];
            value = table[m + j++];
            b[0] = -1;
            b[1] = lo == 0 ? 1 : t_left < t_ray || t_ray < INFINITY ? 0 : 2;
            if (b[1] == 0) {
                d[3] = value - pts[lo - 1] + extra;
                d[4] = value;
                d[5] = pts[i + 1];
                b[0] = gap > d[3];
                b[2] = t_left < t_ray;
                ev->found += b[0];
            }
        }
        if (write)
            put_row(ev, i - lo, d, b);
    }
    free(mem);
    return status_of(status, REFUSED_DX);
}

/* The thinned events of w: the gap events over the union of both lines,
 * the base points, at offset 0 and extra r. */
static int thinned_events(const Run *w, double r, Events *ev)
{
    const double *line0 = w->line[0], *line1 = w->line[1];
    const int64_t n0 = w->len[0], n1 = w->len[1];
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
    status = gap_events(base, p, 0.0, r, w, ev);
    free(base);
    return status;
}

/* The shifted events of w: the gap events over line 0 at offset s and
 * extra r + s, in the frame u -> -u when s < 0, the table's frame too: a
 * second run m, with each line negated and reversed, as its visit steps,
 * and the steps negated. */
static int shifted_events(const Run *w, double r, double s, Events *ev)
{
    const int64_t size = w->len[0] + w->len[1];
    int64_t i, k, l, *v;
    double *f;
    Run m = *w;
    int status;

    if (!(s < 0.0))
        return gap_events(w->line[0], w->len[0], s, r + s, w, ev);
    f = malloc((size_t)(2 * size + w->n + 1) * sizeof(double));
    if (f == NULL)
        return NO_MEMORY;
    v = (int64_t *)(f + size + w->n);
    for (l = k = 0; l < 2; k += w->len[l], l++) {
        m.line[l] = f + k;
        m.vis[l] = v + k;
        for (i = 0; i < w->len[l]; i++) {
            f[k + i] = -w->line[l][w->len[l] - 1 - i];
            v[k + i] = w->vis[l][w->len[l] - 1 - i];
        }
    }
    for (i = 0; i < w->n; i++)
        f[size + i] = -w->us[i];
    m.us = f + size;
    s = -s;
    status = gap_events(m.line[0], m.len[0], s, r + s, &m, ev);
    free(f);
    return status;
}

/* The counts of the run w: counts[0] the sign changes between
 * consecutive shadows, counts[1] the steps k whose step k + 1 lies on
 * another half-line (line, sign), counts[2] the occurred return events of
 * `family` (0 when NO_EVENTS), counts[3] the lemma-audit violations (0
 * unless audit is set) and counts[4] the rows of the events' table, which
 * ev writes where it has room.  r is the separation (0 off parallel lines)
 * and s the shift.  Returns 0; 1, 4 or 3 for a run the deficiency, cluster
 * or audit pass refuses, the events' pass first, as the composition runs
 * them; and 2 when memory runs out. */
static int summarize(const Run *w, int family, double r, double s, int audit,
                     Events *ev, int64_t *counts)
{
    const double *us = w->us;
    const int64_t *lines = w->lines;
    int64_t t, crossings = 0, changes = 0, audit_counts[5];
    int status = 0;

    if (family == DUPLICATED)
        status = band_events(w, r, ev);
    else if (family == THINNED)
        status = thinned_events(w, r, ev);
    else if (family == SHIFTED)
        status = shifted_events(w, r, s, ev);
    if (status)
        return status;
    counts[2] = ev->found;
    counts[3] = 0;
    counts[4] = ev->rows;
    if (audit) {
        status = audit_lemmas(w, r, NULL, 0, NULL, 0, audit_counts);
        if (status)
            return status_of(status, REFUSED_AUDIT);
        counts[3] = audit_counts[3] + audit_counts[4];
    }
    for (t = 1; t < w->n; t++) {
        crossings += (us[t - 1] > 0.0 && us[t] < 0.0)
                     || (us[t - 1] < 0.0 && us[t] > 0.0);
        changes += lines[t - 1] != lines[t]
                   || (us[t - 1] > 0.0) != (us[t] > 0.0);
    }
    counts[0] = crossings;
    counts[1] = changes;
    return 0;
}

/* summarize, with no audit, over the packed run (unpack), its counts to
 * I's, and the events' table laid out as Events at events, cap rows (NULL
 * and 0: counts only). */
int gw_summary(const double *F, int64_t n0, int64_t n1, int64_t *I,
               int64_t n, int family, double r, double s, double *events,
               int64_t cap)
{
    const Run w = unpack(F, n0, n1, I, n);
    Events ev = {events, NULL, cap, 0, 0};

    if (events != NULL)
        ev.b = (int8_t *)(events + 6 * cap);
    return summarize(&w, family, r, s, 0, &ev, I + n0 + n1 + n);
}

/* ------------------------------------------------------------------------
 * A sweep's chunk: gw_sweep walks each of k runs with gw_walk and counts
 * that walk with summarize, in one call for experiments' chunk of runs. */

/* The k runs packed in D, their windows (lo0, hi0, lo1, hi1 per run) and
 * then each run's line 0 and line 1, of N[2i] and N[2i + 1] points, each
 * walked truncation-safe on the geometry kind, r, cos_alpha and counted as
 * summarize counts it with family, r, s and audit.  F, prv, nxt and vis
 * are scratch of the largest run's n0 + n1 + 4 entries, order and dists of
 * its n0 + n1.  Writes a row of six per run to rows: the steps, counts[0]
 * to counts[3] (meaningless where refused) and summarize's status.
 * Returns the status of the first run refused, 0 when every run reads. */
int gw_sweep(const double *D, const int64_t *N, int64_t k, int kind,
              double r, double cos_alpha, int family, double s, int audit,
              double *F, int64_t *prv, int64_t *nxt, int64_t *vis,
              int64_t *order, double *dists, int64_t *rows)
{
    const double *w = D, *pts = D + 4 * k;
    int64_t i, t, n0, n1, n, *row, counts[5] = {0, 0, 0, 0, 0};
    int first = 0;
    Events ev;
    Run run;

    for (i = 0; i < k; i++, w += 4, pts += n0 + n1) {
        n0 = N[2 * i];
        n1 = N[2 * i + 1];
        row = rows + 6 * i;
        F[0] = F[n0 + 2] = -INFINITY;
        F[n0 + 1] = F[n0 + n1 + 3] = INFINITY;
        memcpy(F + 1, pts, (size_t)n0 * sizeof(double));
        memcpy(F + n0 + 3, pts + n0, (size_t)n1 * sizeof(double));
        n = gw_walk(F, n0, n1, kind, r, cos_alpha, w[0], w[1], w[2], w[3], 1,
                    prv, nxt, vis, order, dists);
        for (t = 0; t < n; t++) { /* the shadows to dists, lines to order */
            dists[t] = F[order[t]];
            order[t] = order[t] > n0 + 1;
        }
        ev = (Events){NULL, NULL, 0, 0, 0};
        row[0] = n;
        run = (Run){{F + 1, F + n0 + 3}, dists, {vis + 1, vis + n0 + 3}, order,
                    {n0, n1}, n};
        row[5] = summarize(&run, family, r, s, audit, &ev, counts);
        memcpy(row + 1, counts, 4 * sizeof(int64_t));
        if (first == 0)
            first = (int)row[5];
    }
    return first;
}

/* ------------------------------------------------------------------------
 * A sweep chunk's draws: gw_draw draws each run as processes.generate does,
 * on numpy's stream: Philox4x64-10 (Salmon et al., SC 2011) keyed [seed, 0]
 * from a zero counter, as make_generator sets it, with numpy's
 * random_poisson for counts (Hormann's PTRS at lambda >= 10, else the
 * multiplication method) and random_uniform for positions.  generate, on
 * numpy, is the reference gw_draw is tested against. */

enum { ONE_LINE, TWO_LINES, COPIED, THINNED_COPY, SHIFTED_COPY }; /* CONSTRUCTIONS */

/* out holds the block of ctr, read up to pos (4: spent) */
typedef struct { uint64_t ctr[4], key[2], out[4]; int pos; } Philox;

/* numpy's philox_next64: the next word, from a new block once out is
 * spent, whose counter is bumped (with its carry) first */
static uint64_t next64(Philox *g)
{
    const uint64_t M0 = UINT64_C(0xD2E7470EE14C6C93),
                   M1 = UINT64_C(0xCA5A826395121157),
                   W0 = UINT64_C(0x9E3779B97F4A7C15),
                   W1 = UINT64_C(0xBB67AE8584CAA73B);
    uint64_t *c = g->out, k0 = g->key[0], k1 = g->key[1];
    unsigned __int128 p0, p1;
    int i;

    if (g->pos < 4)
        return c[g->pos++];
    for (i = 0; i < 4 && ++g->ctr[i] == 0; i++)
        ;
    memcpy(c, g->ctr, sizeof g->ctr);
    for (i = 0; i < 10; i++, k0 += W0, k1 += W1) {
        p0 = (unsigned __int128)M0 * c[0];
        p1 = (unsigned __int128)M1 * c[2];
        c[0] = (uint64_t)(p1 >> 64) ^ c[1] ^ k0;
        c[1] = (uint64_t)p1;
        c[2] = (uint64_t)(p0 >> 64) ^ c[3] ^ k1;
        c[3] = (uint64_t)p0;
    }
    g->pos = 1;
    return c[0];
}

/* numpy's next_double: a word's top 53 bits over 2**53 */
static double next_double(Philox *g)
{
    return (double)(next64(g) >> 11) * (1.0 / 9007199254740992.0);
}

/* numpy's random_loggam: log Gamma(x) by Stirling's series from x moved up
 * to 7, and back */
static double loggam(double x)
{
    static const double a[10] = {
        8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
        -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
        6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
        -1.39243221690590e+00};
    int64_t k, n = x < 7.0 ? (int64_t)(7 - x) : 0;
    double x0 = x + n, x2 = (1.0 / x0) * (1.0 / x0), gl = a[9];

    if (x == 1.0 || x == 2.0)
        return 0.0;
    for (k = 8; k >= 0; k--)
        gl = gl * x2 + a[k];
    gl = gl / x0 + 0.5 * 1.8378770664093453 + (x0 - 0.5) * log(x0) - x0;
    for (k = 1; k <= n; k++, x0 -= 1.0)
        gl -= log(x0 - 1.0);
    return gl;
}

/* numpy's random_poisson: PTRS (Hormann 1993) at lam >= 10, else the count
 * of uniforms whose product stays above exp(-lam) */
static int64_t poisson(Philox *g, double lam)
{
    double b = 0.931 + 2.53 * sqrt(lam), a = -0.059 + 0.02483 * b, U, V, us;
    double invalpha = 1.1239 + 1.1328 / (b - 3.4), vr = 0.9277 - 3.6224 / (b - 2);
    int64_t k;

    while (lam >= 10) {
        U = next_double(g) - 0.5;
        V = next_double(g);
        us = 0.5 - fabs(U);
        k = (int64_t)floor((2 * a / us + b) * U + lam + 0.43);
        if (us >= 0.07 && V <= vr)
            return k;
        if (k >= 0 && (us >= 0.013 || V <= us)
            && log(V) + log(invalpha) - log(a / (us * us) + b)
                   <= -lam + k * log(lam) - loggam(k + 1))
            return k;
    }
    for (k = 0, U = 1.0, V = exp(-lam); lam > 0; k++)
        if (!((U *= next_double(g)) > V))
            return k;
    return 0;
}

/* processes.sample_poisson on (-L, L): a count n, then n uniforms, sorted by
 * their bits (into about one bucket a draw by the top bits, then by
 * insertion) before they are scaled, which keeps their order, with exact
 * duplicates dropped.  The points kept go to the start of *pts, a block of
 * 5n + 3 words (the rest is scratch) that the caller frees.  Returns how
 * many, -1 when memory runs out. */
static int64_t sample(Philox *g, double rate, double L, double **pts)
{
    const double lo = -L, range = L - lo;
    int64_t i, j, nb, n = poisson(g, rate * range), *cnt;
    uint64_t x, *w, *sorted;
    int shift = 53;
    double v;

    if ((*pts = malloc((size_t)(5 * n + 3) * 8)) == NULL)
        return -1;
    w = (uint64_t *)(*pts + n);
    sorted = w + n;
    cnt = (int64_t *)(sorted + n);
    for (i = 0; i < n; i++)
        w[i] = next64(g) >> 11;
    for (nb = 1; nb < n; nb *= 2) /* 2**(53 - shift) buckets */
        shift--;
    memset(cnt, 0, (size_t)(nb + 1) * sizeof *cnt);
    for (i = 0; i < n; i++)
        cnt[(w[i] >> shift) + 1]++;
    for (i = 1; i <= nb; i++)
        cnt[i] += cnt[i - 1];
    for (i = 0; i < n; i++)
        sorted[cnt[w[i] >> shift]++] = w[i];
    for (i = 1; i < n; i++) {
        for (x = sorted[i], j = i; j > 0 && sorted[j - 1] > x; j--)
            sorted[j] = sorted[j - 1];
        sorted[j] = x;
    }
    for (i = j = 0; i < n; i++) {
        v = lo + range * ((double)sorted[i] * (1.0 / 9007199254740992.0));
        if (j == 0 || v != (*pts)[j - 1])
            (*pts)[j++] = v;
    }
    return j;
}

/* check_invariants on a packed run in the windows w: 0, or BROKEN plus the
 * index of the first of its rules (processes.INVARIANTS) the run breaks */
static int broken(const double *l0, int64_t n0, const double *l1, int64_t n1,
                  const double *w, int construction, double s)
{
    int64_t i, copy = construction == COPIED || construction == SHIFTED_COPY;

    for (i = 1; i < n0; i++)
        if (!(l0[i] > l0[i - 1]))
            return BROKEN;
    for (i = 1; i < n1; i++)
        if (!(l1[i] > l1[i - 1]))
            return BROKEN + 1;
    if (n0 && !(w[0] <= l0[0] && l0[n0 - 1] <= w[1]))
        return BROKEN + 2;
    if (n1 && !(w[2] <= l1[0] && l1[n1 - 1] <= w[3]))
        return BROKEN + 3;
    if (construction == ONE_LINE && n1)
        return BROKEN + 4;
    for (i = 0; copy && i < (n0 > n1 ? n0 : n1); i++)
        if (n0 != n1 || !((construction == COPIED ? l0[i] : l0[i] + s) == l1[i]))
            return construction == COPIED ? BROKEN + 5 : BROKEN + 6;
    return 0;
}

/* The k runs of seeds, each drawn as generate draws `construction` (its
 * index in CONSTRUCTIONS) at rate and L, with p and s, and restricted as
 * couple_restrict restricts it to each of m windows, whose ends W gives as
 * drawn_windows does (4 a window, line 0's inside (-L, L)), packed into D
 * as gw_sweep reads them, with the line counts in N: the 4km window ends,
 * then each packed run's line 0 and line 1, by run and then by window.
 * N[2km] receives the doubles the packing takes; where that is above room,
 * D holds what fits, for a call again with the room.  Returns 0, NO_MEMORY,
 * or `broken`'s status for the first packed run that breaks a rule. */
int gw_draw(const uint64_t *seeds, int64_t k, int construction, double rate,
            double L, double p, double s, const double *W, int64_t m,
            double *D, int64_t room, int64_t *N)
{
    int64_t i, j, q, n0, n1, a0, e0, a1, e1, at = 4 * k * m;
    int status = 0, shifted = construction == SHIFTED_COPY, to0;
    const double *w;
    double *l0, *l1 = NULL;
    unsigned char *keep;

    for (i = 0; i < k && status == 0; i++) {
        Philox g = {{0, 0, 0, 0}, {seeds[i], 0}, {0, 0, 0, 0}, 4};
        n1 = n0 = sample(&g, rate, L, &l0);
        if (construction == TWO_LINES && n0 >= 0)
            n1 = sample(&g, rate, L, &l1);
        else /* a thinned or shifted line 1 in l0's scratch */
            l1 = construction > COPIED && n0 > 0 ? l0 + n0 : l0;
        status = n0 < 0 || n1 < 0 ? NO_MEMORY : 0;
        n1 = construction == ONE_LINE ? 0 : n1;
        for (j = 0; status == 0 && shifted && j < n0; j++)
            l1[j] = l0[j] + s;
        if (status == 0 && construction == THINNED_COPY) {
            keep = (unsigned char *)(l1 + n0);
            for (j = 0; j < n0; j++)
                keep[j] = next_double(&g) < 1.0 - p;
            for (j = q = n1 = 0; j < n0; j++) { /* line 0 kept in place */
                to0 = next_double(&g) < 0.5;
                if (keep[j] || !to0)
                    l1[n1++] = l0[j];
                if (keep[j] || to0)
                    l0[q++] = l0[j];
            }
            n0 = q;
        }
        for (j = 0, q = i * m, w = W; j < m && status == 0; j++, q++, w += 4) {
            for (a0 = 0; a0 < n0 && l0[a0] < w[0]; a0++)
                ;
            for (e0 = n0; e0 > a0 && l0[e0 - 1] > w[1]; e0--)
                ;
            for (a1 = 0; !shifted && a1 < n1 && l1[a1] < w[0]; a1++)
                ;
            for (e1 = n1; !shifted && e1 > a1 && l1[e1 - 1] > w[1]; e1--)
                ;
            if (shifted) /* line 1 keeps line 0's range */
                a1 = a0, e1 = e0;
            N[2 * q] = e0 - a0;
            N[2 * q + 1] = e1 - a1;
            status = broken(l0 + a0, e0 - a0, l1 + a1, e1 - a1, w,
                            construction, s);
            if (4 * k * m <= room)
                memcpy(D + 4 * q, w, 4 * sizeof *D);
            if (at + (e0 - a0) + (e1 - a1) <= room) {
                memcpy(D + at, l0 + a0, (size_t)(e0 - a0) * sizeof *D);
                memcpy(D + at + e0 - a0, l1 + a1, (size_t)(e1 - a1) * sizeof *D);
            }
            at += (e0 - a0) + (e1 - a1);
        }
        if (construction == TWO_LINES)
            free(l1);
        free(l0);
    }
    N[2 * k * m] = at;
    return status;
}
