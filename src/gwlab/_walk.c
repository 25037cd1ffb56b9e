/* The greedy walk's step loop, compiled.  walk.py builds this file into a
 * shared library, calls gw_walk through ctypes and builds the Trajectory
 * from what it writes.  Its trajectories must equal the Python loop's bit
 * for bit: every distance is computed in the expression order of
 * cross_distance and stop_margin, the build turns floating-point
 * contraction off (no fused multiply-add), and a target that evaluates
 * doubles in wider precision (x87) refuses to build, so walk.py falls back
 * to the Python loop there.
 *
 * Both lines sit in one flat table [-inf, line0..., +inf, -inf, line1...,
 * +inf]; a sentinel is never visited, so a search along a line ends at a
 * point or at the sentinel, and a step of inf means every point is
 * visited. */
#include <float.h>
#include <math.h>
#include <stdint.h>

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
    return sqrt(u * u + v * v - 2.0 * u * v * sp->cos_alpha);
}

/* where abscissa u projects onto the other line */
static double centre(const Space *sp, double u)
{
    return sp->kind == INTERSECTING ? u * sp->cos_alpha : u;
}

/* np.minimum for the values here, which are never NaN */
static double min2(double a, double b) { return b < a ? b : a; }

/* stop_margin: the shortest distance from u on `line` to any location
 * outside the windows */
static double margin(const Space *sp, double u, int line)
{
    int o = 1 - line;
    double m = min2(u - sp->lo[line], sp->hi[line] - u);
    if (sp->kind == PARALLEL) {
        double h = min2(u - sp->lo[o], sp->hi[o] - u);
        m = min2(m, cross(sp, h > 0.0 ? h : 0.0, 0.0));
    } else if (sp->kind == INTERSECTING) {
        m = min2(m, cross(sp, u, sp->lo[o]));
        m = min2(m, cross(sp, u, sp->hi[o]));
    }
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

/* Walk from abscissa cu on line cl, whose stop margin is m (inf under
 * run-to-exhaustion), over the flat table F of n0 + n1 points drawn on the
 * windows [lo0, hi0] and [lo1, hi1].  prv and nxt are scratch of
 * n0 + n1 + 4 entries; vis (as many) receives each flat index's 1-based
 * visit step, -1 if unvisited; order and dists (n0 + n1) receive the flat
 * index and the distance of each step.  Returns the step count and sets
 * *exhausted when every point was visited. */
int64_t gw_walk(const double *F, int64_t n0, int64_t n1, int kind, double r,
                double cos_alpha, double lo0, double hi0, double lo1,
                double hi1, int truncating, double cu, int cl, double m,
                int64_t *prv, int64_t *nxt, int64_t *vis, int64_t *order,
                double *dists, int *exhausted)
{
    const Space sp = {kind, r, cos_alpha, {lo0, lo1}, {hi0, hi1}};
    const int64_t size = n0 + n1 + 4;
    const int64_t lo[2] = {0, n0 + 2}, hi[2] = {n0 + 1, n0 + n1 + 3};
    int ol = 1 - cl, t;
    int64_t k, i, p, s, xp, xs, near[2], step = 0;
    double d, d_s, dcp, dcs;

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
    *exhausted = d == INFINITY;
    return step;
}
