(** Order statistics for the run report.

    [quantile] is the report's percentile (linear interpolation between
    closest ranks); [quartiles] reproduces Python's
    [statistics.quantiles(xs, n=4)], the statistic the A/A spread check
    uses, so the in-run report and the external check agree. *)

val quantile : float array -> float -> float
(** [quantile xs q] for [q] in [[0, 1]]: linear interpolation between
    the closest ranks of the sorted samples ([xs] is not mutated).
    @raise Invalid_argument on an empty array or [q] outside [[0, 1]]. *)

val median : float array -> float
(** [quantile xs 0.5]. *)

val quartiles : float array -> float * float * float
(** [(q1, q2, q3)] exactly as Python's [statistics.quantiles(xs, n=4)]
    (method ["exclusive"]).
    @raise Invalid_argument with fewer than two samples. *)

val iqr_share : float array -> float
(** [(q3 - q1) / median], quartiles as {!quartiles} and the median as
    {!median}: the run-to-run spread of a metric as a share of its
    median.
    @raise Invalid_argument with fewer than two samples or a zero
    median. *)
