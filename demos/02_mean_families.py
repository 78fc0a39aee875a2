"""The mean operator and its three families.

Picking a starting vertex (the weights) and a direction (the target)
yields a whole family of means, V(a*b, d) / V(a, b): vertex (1,1) gives
the ordinary mean, vertex (1,x) toward x weights x by itself, and vertex
(1,w) toward x weights x by any other measure w.  For data concentrated
away from zero, all of them land close together.
"""

import numpy as np

from latreg import (Dataset, Direction, MeanRequest, UNITY, build_lattice,
                    mean_operator, self_weighting_mean, simulate_convergence,
                    standard_mean, weighted_mean)

data = Dataset({"x": [1.0, 2.0, 3.0], "y": [2.0, 3.0, 5.0]})

# Each mean is a ratio of two vertices: V(1,x)/V(1,1), V(x,x)/V(1,x) and
# V(y,x)/V(1,y).  One lattice over (1, x, y), built in one pass over the
# rows, serves all three families.
lat = build_lattice(data, [UNITY, Direction("x"), Direction("y")])
print("standard mean of x      :", standard_mean(lat, "x"))        # 2
print("self-weighting mean of x:", self_weighting_mean(lat, "x"))  # 14/6
print("x weighted by y         :", weighted_mean(lat, "x", "y"))   # 23/10

# The general operator accepts any vertex, including level-two ones:
# V(x*y, x) / V(x, y).  A dataset sums those two vertices from its rows.
req = MeanRequest(vertex=(Direction("x"), Direction("y")), target=Direction("x"))
print("x from vertex (x,y)     :", mean_operator(data, req))        # 59/23

# How far can random weights pull the estimate?  Draw x ~ Normal(100, 1)
# and independent uniform weights, many times over.
stats = simulate_convergence(seed=1, n=1000, mu=100.0, sigma=1.0, trials=100)
print("\nrandom-weight deviation, max over 100 trials :",
      round(stats["random_weight_dev_max"], 5))
print("self-weighting deviation, max over 100 trials:",
      round(stats["self_weight_dev_max"], 5))

# The deviation scale for uniform weights is sigma * sqrt(sum w^2) / sum w,
# about sigma * sqrt(4 / (3 n)) here, i.e. ~0.037 at n=1000.
print("predicted scale:", round(1.0 * np.sqrt(4.0 / (3.0 * 1000.0)), 5))
