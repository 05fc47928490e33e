"""geobuf_ray — a Ray-Data-native spatial data-processing engine.

From-scratch reimplementation of the capabilities of murphy214/geobuf
(varint delta-encoded geometry codec, streaming geobuf files, tile
split/combine) as vectorized Arrow batch kernels and Ray Data pipeline
stages, plus an H3/S2-style cell-indexed spatial-join + tiling engine
and large-scale training-data operators (dedup, ANN, text analysis,
image tables).  See SURVEY.md for the blueprint.
"""

__version__ = "0.3.0"


def __getattr__(name):
    """Lazy top-level API (keeps ``import geobuf_ray`` Ray-free).

    Sources/sinks: read_geobuf, write_geobuf, read_metadata,
    read_subfile, write_indexed_geobuf, read_geojson-style converters.
    Pipelines: split_combine, split_combine_keys, tile_clip, tile_cover,
    assign_tiles.  Joins: hash_join (inner/left/right/full),
    broadcast_join, semi_join, anti_join, asof_join, range_join,
    point_in_polygon_join, knn_join, pip_s2_join, knn_s2_join,
    hash_cogroup.  Windows: lag_lead, running_agg, moving_agg,
    rank_window.  Set ops: intersect_distinct, except_distinct.
    Raster: rasterize_polygons, masks_to_boxes.
    Training-data ops: exact_dedup, minhash_candidate_pairs,
    minhash_dedup, simhash_candidate_pairs, embedding_dedup_pairs,
    hash64_candidate_pairs, brute_force_topk, ivf_build, ivf_topk,
    approx_distinct, approx_quantiles.
    """
    from importlib import import_module

    registry = {
        "read_geobuf": ("geobuf_ray.io.geobuf_file", "read_geobuf"),
        "write_geobuf": ("geobuf_ray.io.geobuf_file", "write_geobuf"),
        "read_metadata": ("geobuf_ray.io.geobuf_file", "read_metadata"),
        "read_subfile": ("geobuf_ray.io.geobuf_file", "read_subfile"),
        "write_indexed_geobuf": ("geobuf_ray.io.geobuf_file",
                                 "write_indexed_geobuf"),
        "geojson_to_geobuf": ("geobuf_ray.pipelines.convert",
                              "geojson_to_geobuf"),
        "geobuf_to_geojson": ("geobuf_ray.pipelines.convert",
                              "geobuf_to_geojson"),
        "split_combine": ("geobuf_ray.pipelines.tiling", "split_combine"),
        "split_combine_keys": ("geobuf_ray.pipelines.tiling",
                               "split_combine_keys"),
        "assign_tiles": ("geobuf_ray.pipelines.tiling", "assign_tiles"),
        "tile_clip": ("geobuf_ray.pipelines.tiling", "tile_clip"),
        "tile_cover": ("geobuf_ray.pipelines.tiling", "tile_cover"),
        "hash_join": ("geobuf_ray.functions.join", "hash_join"),
        "broadcast_join": ("geobuf_ray.functions.join", "broadcast_join"),
        "lag_lead": ("geobuf_ray.functions.window", "lag_lead"),
        "running_agg": ("geobuf_ray.functions.window", "running_agg"),
        "moving_agg": ("geobuf_ray.functions.window", "moving_agg"),
        "rank_window": ("geobuf_ray.functions.window", "rank_window"),
        "semi_join": ("geobuf_ray.functions.join", "semi_join"),
        "anti_join": ("geobuf_ray.functions.join", "anti_join"),
        "rollup_agg": ("geobuf_ray.functions.agg", "rollup_agg"),
        "cube_agg": ("geobuf_ray.functions.agg", "cube_agg"),
        "pivot_agg": ("geobuf_ray.functions.agg", "pivot_agg"),
        "moments_agg": ("geobuf_ray.functions.agg", "moments_agg"),
        "unpivot": ("geobuf_ray.functions.agg", "unpivot"),
        "skyline": ("geobuf_ray.functions.skyline", "skyline"),
        "mode_agg": ("geobuf_ray.functions.agg", "mode_agg"),
        "morton_key": ("geobuf_ray.spatial.curves", "morton_key"),
        "geohash_key": ("geobuf_ray.spatial.curves", "geohash_key"),
        "zorder_sort": ("geobuf_ray.spatial.curves", "zorder_sort"),
        "heavy_hitters": ("geobuf_ray.functions.sketch", "heavy_hitters"),
        "tfidf_topk": ("geobuf_ray.functions.text", "tfidf_topk"),
        "grouping_sets_agg": ("geobuf_ray.functions.agg",
                              "grouping_sets_agg"),
        "stratified_sample": ("geobuf_ray.functions.sample",
                              "stratified_sample"),
        "convex_hull": ("geobuf_ray.spatial.hull", "convex_hull"),
        "convex_hull_points": ("geobuf_ray.spatial.hull",
                               "convex_hull_points"),
        "intersect_distinct": ("geobuf_ray.functions.setops",
                               "intersect_distinct"),
        "except_distinct": ("geobuf_ray.functions.setops",
                            "except_distinct"),
        "asof_join": ("geobuf_ray.functions.join", "asof_join"),
        "range_join": ("geobuf_ray.functions.join", "range_join"),
        "point_in_polygon_join": ("geobuf_ray.spatial.join",
                                  "point_in_polygon_join"),
        "knn_join": ("geobuf_ray.spatial.join", "knn_join"),
        "exact_dedup": ("geobuf_ray.functions.dedup", "exact_dedup"),
        "minhash_candidate_pairs": ("geobuf_ray.functions.dedup",
                                    "minhash_candidate_pairs"),
        "minhash_dedup": ("geobuf_ray.functions.dedup", "minhash_dedup"),
        "simhash_candidate_pairs": ("geobuf_ray.functions.dedup",
                                    "simhash_candidate_pairs"),
        "embedding_dedup_pairs": ("geobuf_ray.functions.dedup",
                                  "embedding_dedup_pairs"),
        "brute_force_topk": ("geobuf_ray.functions.ann", "brute_force_topk"),
        "ivf_build": ("geobuf_ray.functions.ann", "ivf_build"),
        "ivf_topk": ("geobuf_ray.functions.ann", "ivf_topk"),
        "pip_s2_join": ("geobuf_ray.spatial.join", "pip_s2_join"),
        "knn_s2_join": ("geobuf_ray.spatial.join", "knn_s2_join"),
        "within_distance_join": ("geobuf_ray.spatial.join",
                                 "within_distance_join"),
        "bbox_intersection_join": ("geobuf_ray.spatial.join",
                                   "bbox_intersection_join"),
        "hash_cogroup": ("geobuf_ray.functions.exchange", "hash_cogroup"),
        "rasterize_polygons": ("geobuf_ray.spatial.raster",
                               "rasterize_polygons"),
        "masks_to_boxes": ("geobuf_ray.spatial.raster", "masks_to_boxes"),
        "hash64_candidate_pairs": ("geobuf_ray.functions.dedup",
                                   "hash64_candidate_pairs"),
        "approx_distinct": ("geobuf_ray.functions.sketch",
                            "approx_distinct"),
        "approx_quantiles": ("geobuf_ray.functions.sketch",
                             "approx_quantiles"),
        "geometry_measures": ("geobuf_ray.spatial.measures",
                              "geometry_measures"),
        "top_terms": ("geobuf_ray.functions.text", "top_terms"),
        "build_pyramid": ("geobuf_ray.io.images", "build_pyramid"),
        "mosaic_tiles": ("geobuf_ray.io.images", "mosaic_tiles"),
        "simplify": ("geobuf_ray.spatial.simplify", "simplify"),
        "connected_components": ("geobuf_ray.functions.graph",
                                 "connected_components"),
        "measures_batch": ("geobuf_ray.spatial.measures", "measures_batch"),
    }
    if name in registry:
        mod, attr = registry[name]
        return getattr(import_module(mod), attr)
    raise AttributeError(f"module 'geobuf_ray' has no attribute {name!r}")
