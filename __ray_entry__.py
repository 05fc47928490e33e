"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; no
``ray.init``/``ray.shutdown`` here or in the library (see repo brief).

``queries()`` covers the operator inventory of SURVEY.md §2 plus the
training-data operators; ``oracle_sql()`` gives the DuckDB-equivalent
for every SQL-expressible query (same column names, integer arithmetic
where parity matters).  Non-SQL ops (codec internals aside, LSH
sketches, langid, image decode) are rows-only checks by design.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def _query_module():
    """``q``, the query module, imported on first use: it is most of
    this module's import cost, and only ``entry()`` and ``queries()``
    need it."""
    global q
    try:
        return q
    except NameError:
        from geobuf_ray.pipelines import queries as q
        return q


def __getattr__(name: str) -> Any:
    if name == "q":
        return _query_module()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# shared SQL fragments for the derived geometry (see queries.py docstring)
_LON = "(((c_custkey * 7919) % 36000) / 100.0 - 180.0)"
_LAT = "(((c_custkey * 104729) % 17000) / 100.0 - 85.0)"
_SLON = "(((s_suppkey * 7919) % 36000) / 100.0 - 180.0)"
_SLAT = "(((s_suppkey * 104729) % 17000) / 100.0 - 85.0)"

# slippy tile indices at zoom z for lon/lat expressions (OSM formula,
# lat within +-85 in this derivation so no clamp needed)
def _mix_ctes(prefix: str, src: str, salt: int) -> str:
    """CTE chain replicating functions/dedup._mix (xorshift-multiply,
    64-bit via 32-bit split multiplies) applied to column ``ck`` of
    ``src`` for one salt; result lands in column ``x`` of
    ``{prefix}f``."""
    return f"""
            {prefix}0 AS (SELECT *, xor(ck, {salt}) AS x FROM {src}),
            {prefix}1 AS (SELECT * EXCLUDE (x),
                 xor(x, x // 8589934592) AS x FROM {prefix}0),
            {prefix}2 AS (SELECT * EXCLUDE (x),
                 (((x // 4294967296) * 2135587861
                   + (x % 4294967296) * 2654435769) * 4294967296
                  + (x % 4294967296) * 2135587861)
                 % 18446744073709551616 AS x FROM {prefix}1),
            {prefix}3 AS (SELECT * EXCLUDE (x),
                 xor(x, x // 536870912) AS x FROM {prefix}2),
            {prefix}4 AS (SELECT * EXCLUDE (x),
                 (((x // 4294967296) * 668265295
                   + (x % 4294967296) * 3266489917) * 4294967296
                  + (x % 4294967296) * 668265295)
                 % 18446744073709551616 AS x FROM {prefix}3),
            {prefix}f AS (SELECT * EXCLUDE (x),
                 xor(x, x // 4294967296) AS x FROM {prefix}4)"""


def _tile_x(lon: str, z: int) -> str:
    n = 1 << z
    return f"LEAST(GREATEST(CAST(floor(({lon} + 180.0) / 360.0 * {n}) AS BIGINT), 0), {n - 1})"


def _quant(coord: str, lo: float, span: float, bits: int) -> str:
    n = 1 << bits
    return (f"LEAST(GREATEST(CAST(floor(({coord} - {lo}) / {span} * {n}) "
            f"AS BIGINT), 0), {n - 1})")


def _spread16(e: str) -> str:
    """SQL twin of spatial/curves._spread_bits16 (magic-number bit
    interleave; exact BIGINT ops)."""
    e1 = f"(({e} | ({e} << 8)) & 16711935)"
    e2 = f"(({e1} | ({e1} << 4)) & 252645135)"
    e3 = f"(({e2} | ({e2} << 2)) & 858993459)"
    return f"(({e3} | ({e3} << 1)) & 1431655765)"


def _tile_y(lat: str, z: int) -> str:
    n = 1 << z
    return (
        f"LEAST(GREATEST(CAST(floor((1.0 - ln(tan(radians({lat})) + 1.0/cos(radians({lat}))) / pi()) "
        f"/ 2.0 * {n}) AS BIGINT), 0), {n - 1})"
    )


# image centroids in SQL (round-2 judge item #6): the engine derives
# per-image lon/lat from CRC-32("img%012d") (io/images.py
# image_centroids); this recursive CTE runs the same reflected CRC-32
# as 120 bit-rounds and lands bit-identical doubles (asserted by
# tools/check_oracles).  n is pinned to the driver's sf0.01 tier.
def _img_pts_cte(n: int) -> str:
    return f"""
        WITH RECURSIVE crc AS (
            SELECT i AS image_idx, 0 AS s, CAST(4294967295 AS BIGINT) AS c
            FROM range(0, {n}) t(i)
            UNION ALL
            SELECT image_idx, s + 1,
                   xor(t // 2, CASE WHEN t % 2 = 1 THEN 3988292384 ELSE 0 END)
            FROM (
                SELECT image_idx, s,
                       CASE WHEN s % 8 = 0 THEN xor(c,
                           CASE (s // 8)
                             WHEN 0 THEN 105 WHEN 1 THEN 109 WHEN 2 THEN 103
                             ELSE 48 + (image_idx // CAST(pow(10, 14 - (s // 8)) AS BIGINT)) % 10
                           END)
                       ELSE c END AS t
                FROM crc WHERE s < 120
            )
        ),
        h AS (SELECT image_idx, xor(c, 4294967295) AS hsh FROM crc WHERE s = 120),
        cent AS (
            SELECT image_idx, hsh,
                   CAST((CAST(hsh AS HUGEINT) * 2654435761) % 4294967296 AS DOUBLE) / 4294967296.0 AS u1,
                   CAST((CAST(hsh AS HUGEINT) * 40503) % 4294967296 AS DOUBLE) / 4294967296.0 AS u2,
                   hsh % 5 = 0 AS hot
            FROM h
        ),
        pts AS (
            SELECT image_idx,
                   CASE WHEN hot THEN 10.0 + u1 * 0.2 ELSE -180.0 + u1 * 360.0 END AS lon,
                   CASE WHEN hot THEN 50.0 + u2 * 0.2 ELSE -85.0 + u2 * 170.0 END AS lat
            FROM cent
        )
    """


def entry() -> Any:
    """Flagship pipeline on sf0.001: derived customer points through
    the geobuf codec round-trip, then the cell-pruned PIP join against
    supplier rectangles."""
    sf = "/root/testdata/sf0.001"
    return _query_module().pip_rect_join(sf)


def queries() -> dict[str, Callable[[str], Any]]:
    q = _query_module()
    return {
        # relational core (read-prune, partial agg, broadcast join,
        # sort/limit, window)
        "tpch_q1": q.tpch_q1,
        "orders_by_segment": q.orders_by_segment,
        "top_orders": q.top_orders,
        "events_hourly": q.events_hourly,
        "events_hourly_distinct": q.events_hourly_distinct,
        "events_hourly_distinct_hll": q.events_hourly_distinct_hll,
        "events_sliding": q.events_sliding,
        "events_sessions": q.events_sessions,
        "events_user_range_sum": q.events_user_range_sum,
        "events_lag_value": q.events_lag_value,
        "orders_first_last": q.orders_first_last,
        "lineitem_urgent_semi_bloom": q.lineitem_urgent_semi_bloom,
        "lineitem_qty_quantiles_by_flag": q.lineitem_qty_quantiles_by_flag,
        "lineitem_price_cont_by_flag": q.lineitem_price_cont_by_flag,
        "orders_running_total": q.orders_running_total,
        "high_value_orders": q.high_value_orders,
        "customer_orders_full": q.customer_orders_full,
        "suppliers_with_shipments": q.suppliers_with_shipments,
        "parts_never_shipped": q.parts_never_shipped,
        "lineitem_moving_qty": q.lineitem_moving_qty,
        "orders_rank_by_date": q.orders_rank_by_date,
        "lineitem_stratified_sample": q.lineitem_stratified_sample,
        "orders_priority_intersect": q.orders_priority_intersect,
        "orders_priority_except": q.orders_priority_except,
        "lineitem_flag_intersect_all": q.lineitem_flag_intersect_all,
        "lineitem_flag_except_all": q.lineitem_flag_except_all,
        "lineitem_rollup": q.lineitem_rollup,
        "lineitem_cube": q.lineitem_cube,
        "orders_grouping_sets": q.orders_grouping_sets,
        "orders_pivot_status": q.orders_pivot_status,
        "lineitem_qty_moments": q.lineitem_qty_moments,
        "orders_skyline": q.orders_skyline,
        "lineitem_mode_qty": q.lineitem_mode_qty,
        "customers_zorder_cells": q.customers_zorder_cells,
        "events_top_users_mg": q.events_top_users_mg,
        "images_dup_clusters": q.images_dup_clusters,
        "images_embed_dedup": q.images_embed_dedup,
        "customers_geohash_counts": q.customers_geohash_counts,
        "lineitem_unpivot_sums": q.lineitem_unpivot_sums,
        "orders_priority_hull": q.orders_priority_hull,
        "events_distinct_users": q.events_distinct_users,
        "events_distinct_users_hll": q.events_distinct_users_hll,
        "events_user_overlap_kmv": q.events_user_overlap_kmv,
        "events_user_freq_cms": q.events_user_freq_cms,
        "parts_pagerank_top": q.parts_pagerank_top,
        "orders_status_strings": q.orders_status_strings,
        "lineitem_corr_by_flag": q.lineitem_corr_by_flag,
        "embeddings_pos_sums": q.embeddings_pos_sums,
        "docs_pack_chunks": q.docs_pack_chunks,
        "docs_chunk_spans": q.docs_chunk_spans,
        "docs_pack_greedy": q.docs_pack_greedy,
        "docs_similar_prefixes": q.docs_similar_prefixes,
        "docs_decontaminate": q.docs_decontaminate,
        "embeddings_kmeans": q.embeddings_kmeans,
        "embeddings_semantic_dedup": q.embeddings_semantic_dedup,
        "embeddings_pq_topk": q.embeddings_pq_topk,
        "embeddings_ivfpq_topk": q.embeddings_ivfpq_topk,
        "embeddings_covariance": q.embeddings_covariance,
        "embeddings_pca_project": q.embeddings_pca_project,
        "events_interval_coalesce": q.events_interval_coalesce,
        "events_value_histogram": q.events_value_histogram,
        "docs_source_mix": q.docs_source_mix,
        "events_props_extract": q.events_props_extract,
        "events_cohort_retention": q.events_cohort_retention,
        "events_funnel": q.events_funnel,
        "events_transitions": q.events_transitions,
        "events_markov_stationary": q.events_markov_stationary,
        "events_holt_hourly": q.events_holt_hourly,
        "events_cumulative_distinct": q.events_cumulative_distinct,
        "events_interarrival_moments": q.events_interarrival_moments,
        "orders_revenue_hhi": q.orders_revenue_hhi,
        "lineitem_ols_qty_price": q.lineitem_ols_qty_price,
        "orders_percent_rank_probe": q.orders_percent_rank_probe,
        "orders_backlog_littles_law": q.orders_backlog_littles_law,
        "docs_lang_source_chi2": q.docs_lang_source_chi2,
        "docs_char_trigrams_by_lang": q.docs_char_trigrams_by_lang,
        "docs_source_vocab_jaccard": q.docs_source_vocab_jaccard,
        "suppliers_assortativity": q.suppliers_assortativity,
        "events_window_funnel": q.events_window_funnel,
        "audio_wav_pipeline": q.audio_wav_pipeline,
        "video_mjpeg_pipeline": q.video_mjpeg_pipeline,
        "parts_frequent_triples": q.parts_frequent_triples,
        "parts_assoc_rules": q.parts_assoc_rules,
        "events_value_twap": q.events_value_twap,
        "events_value_autocorr": q.events_value_autocorr,
        "events_cusum_alarms": q.events_cusum_alarms,
        "events_value_ewma": q.events_value_ewma,
        "events_hourly_gapfill": q.events_hourly_gapfill,
        "events_hourly_interp": q.events_hourly_interp,
        "lineitem_price_mad_outliers": q.lineitem_price_mad_outliers,
        "lineitem_price_decile_stats": q.lineitem_price_decile_stats,
        "lineitem_price_mad_outliers_by_flag":
            q.lineitem_price_mad_outliers_by_flag,
        "customers_hexbin": q.customers_hexbin,
        "suppliers_hex_neighbors": q.suppliers_hex_neighbors,
        "customers_nearest_supplier": q.customers_nearest_supplier,
        "customers_hausdorff_nations": q.customers_hausdorff_nations,
        "customers_dbscan": q.customers_dbscan,
        "orders_status_history": q.orders_status_history,
        "orders_latest_order": q.orders_latest_order,
        "suppliers_sssp": q.suppliers_sssp,
        "tpch_q5": q.tpch_q5,
        "tpch_q10": q.tpch_q10,
        "tpch_q13": q.tpch_q13,
        "tpch_q18": q.tpch_q18,
        "tpch_q4": q.tpch_q4,
        "tpch_q12": q.tpch_q12,
        "tpch_q14": q.tpch_q14,
        "tpch_q19": q.tpch_q19,
        "events_by_segment_salted": q.events_by_segment_salted,
        "customers_map_match": q.customers_map_match,
        "rects_contain_join": q.rects_contain_join,
        "suppliers_line_interpolate": q.suppliers_line_interpolate,
        "od_matrix_2000km": q.od_matrix_2000km,
        "images_dedup_survivors": q.images_dedup_survivors,
        "suppliers_subtree_sums": q.suppliers_subtree_sums,
        "events_ohlc_hourly": q.events_ohlc_hourly,
        "parts_copurchase_top": q.parts_copurchase_top,
        "parts_copurchase_kcore": q.parts_copurchase_kcore,
        "parts_copurchase_lift": q.parts_copurchase_lift,
        "orders_merge_into": q.orders_merge_into,
        "orders_merge_on_read": q.orders_merge_on_read,
        "orders_agg_view": q.orders_agg_view,
        "orders_time_travel": q.orders_time_travel,
        "orders_change_feed": q.orders_change_feed,
        "orders_schema_evolution": q.orders_schema_evolution,
        "orders_rebalance": q.orders_rebalance,
        "orders_point_lookup": q.orders_point_lookup,
        "lineitem_constraints": q.lineitem_constraints,
        "orders_cdc_to_view": q.orders_cdc_to_view,
        "orders_txn_consistency": q.orders_txn_consistency,
        "orders_join_view_maintenance": q.orders_join_view_maintenance,
        "events_seasonal_anomalies": q.events_seasonal_anomalies,
        "events_rank_test": q.events_rank_test,
        "events_kruskal_wallis": q.events_kruskal_wallis,
        "events_value_entropy": q.events_value_entropy,
        "orders_compaction_plan": q.orders_compaction_plan,
        "events_rate_limiter": q.events_rate_limiter,
        "suppliers_betweenness": q.suppliers_betweenness,
        "suppliers_max_flow": q.suppliers_max_flow,
        "suppliers_customer_matching": q.suppliers_customer_matching,
        "lineitem_gini_by_flag": q.lineitem_gini_by_flag,
        "lineitem_benford": q.lineitem_benford,
        "events_watermark_hourly": q.events_watermark_hourly,
        "docs_token_drift": q.docs_token_drift,
        "docs_curation_funnel": q.docs_curation_funnel,
        "docs_unigram_surprise": q.docs_unigram_surprise,
        "docs_bpe_merges": q.docs_bpe_merges,
        "docs_bpe_encode": q.docs_bpe_encode,
        "docs_compression_ratio": q.docs_compression_ratio,
        "images_clip_score": q.images_clip_score,
        "images_aspect_buckets": q.images_aspect_buckets,
        "suppliers_balance_tier_theta": q.suppliers_balance_tier_theta,
        "lineitem_qty_power_sums": q.lineitem_qty_power_sums,
        "images_nms": q.images_nms,
        "parts_soundex_blocks": q.parts_soundex_blocks,
        "nations_frechet_pairs": q.nations_frechet_pairs,
        "nations_path_raster": q.nations_path_raster,
        "images_box_pixel_sums": q.images_box_pixel_sums,
        "rects_morphology_open": q.rects_morphology_open,
        "docs_rrf_fusion": q.docs_rrf_fusion,
        "docs_source_diversity": q.docs_source_diversity,
        "lineitem_lookup_join": q.lineitem_lookup_join,
        "rects_affine_warp": q.rects_affine_warp,
        "embeddings_topk_bq": q.embeddings_topk_bq,
        "docs_grouped_split": q.docs_grouped_split,
        "docs_keywords": q.docs_keywords,
        "images_blob_stats": q.images_blob_stats,
        "events_debounce": q.events_debounce,
        "docs_cdc_chunks": q.docs_cdc_chunks,
        "parts_fuzzy_matches": q.parts_fuzzy_matches,
        "docs_temperature_mix": q.docs_temperature_mix,
        "audio_silence_segments": q.audio_silence_segments,
        "orders_zonemap_scan": q.orders_zonemap_scan,
        "docs_skipgram_top": q.docs_skipgram_top,
        "images_sharpness": q.images_sharpness,
        "customers_rfm": q.customers_rfm,
        "images_quarantine_decode": q.images_quarantine_decode,
        "orders_join_size_estimate": q.orders_join_size_estimate,
        "customers_k_anonymity": q.customers_k_anonymity,
        "customers_dp_histogram": q.customers_dp_histogram,
        "orders_duplicate_payments": q.orders_duplicate_payments,
        "parts_abc_analysis": q.parts_abc_analysis,
        "orders_cohort_ltv": q.orders_cohort_ltv,
        "customers_knn_class": q.customers_knn_class,
        "customers_tile_mode": q.customers_tile_mode,
        "suppliers_scorecard": q.suppliers_scorecard,
        "parts_return_rates": q.parts_return_rates,
        "parts_price_dispersion": q.parts_price_dispersion,
        "events_gap_histogram": q.events_gap_histogram,
        "events_rolling_active_users": q.events_rolling_active_users,
        "docs_reading_stats": q.docs_reading_stats,
        "customers_order_cadence": q.customers_order_cadence,
        "events_type_cooccurrence": q.events_type_cooccurrence,
        "images_ssim_pairs": q.images_ssim_pairs,
        "lineitem_ship_delay_quantiles": q.lineitem_ship_delay_quantiles,
        "events_local_peaks": q.events_local_peaks,
        "events_value_streaks": q.events_value_streaks,
        "docs_vocab_growth": q.docs_vocab_growth,
        "orders_new_vs_returning": q.orders_new_vs_returning,
        "orders_gaps_islands": q.orders_gaps_islands,
        "orders_reconciliation": q.orders_reconciliation,
        "nations_viterbi_match": q.nations_viterbi_match,
        "customers_survival": q.customers_survival,
        "events_attribution": q.events_attribution,
        "orders_priority_diameter": q.orders_priority_diameter,
        "orders_backlog_curve": q.orders_backlog_curve,
        "embeddings_matryoshka_recall": q.embeddings_matryoshka_recall,
        "docs_huffman_plan": q.docs_huffman_plan,
        "audio_normalize": q.audio_normalize,
        "docs_pair_token_edit": q.docs_pair_token_edit,
        "images_caption_dups": q.images_caption_dups,
        "images_pipeline_e2e": q.images_pipeline_e2e,
        "rects_box_density": q.rects_box_density,
        "events_change_point": q.events_change_point,
        "lineitem_qq_table": q.lineitem_qq_table,
        "orders_dow_chisq": q.orders_dow_chisq,
        "lineitem_bootstrap_sums": q.lineitem_bootstrap_sums,
        "images_shard_roundtrip": q.images_shard_roundtrip,
        "rects_containment_parent": q.rects_containment_parent,
        "images_epoch_order": q.images_epoch_order,
        "docs_langid_confusion": q.docs_langid_confusion,
        "lineitem_sequence_gaps": q.lineitem_sequence_gaps,
        "events_sliding_median": q.events_sliding_median,
        "events_ks_test": q.events_ks_test,
        "events_bucket_skew": q.events_bucket_skew,
        "supplier_balance_pareto": q.supplier_balance_pareto,
        "lineitem_discount_profile": q.lineitem_discount_profile,
        "lineitem_weighted_median": q.lineitem_weighted_median,
        "events_hourly_trend": q.events_hourly_trend,
        "events_mann_kendall": q.events_mann_kendall,
        "orders_fd_audit": q.orders_fd_audit,
        "rects_line_of_sight": q.rects_line_of_sight,
        "video_scene_cuts": q.video_scene_cuts,
        "images_equalize": q.images_equalize,
        "customers_l_diversity": q.customers_l_diversity,
        "images_trim_borders": q.images_trim_borders,
        "suppliers_scc": q.suppliers_scc,
        "audio_clip_audit": q.audio_clip_audit,
        "rects_terrain_aspect": q.rects_terrain_aspect,
        "rects_flow_accumulation": q.rects_flow_accumulation,
        "rects_watershed_basins": q.rects_watershed_basins,
        "events_pattern_match": q.events_pattern_match,
        "suppliers_voronoi_areas": q.suppliers_voronoi_areas,
        "suppliers_closeness": q.suppliers_closeness,
        "events_dtw_pairs": q.events_dtw_pairs,
        "images_template_match": q.images_template_match,
        "video_motion_estimate": q.video_motion_estimate,
        "customers_hilbert_cells": q.customers_hilbert_cells,
        "orders_allen_relations": q.orders_allen_relations,
        "images_otsu_threshold": q.images_otsu_threshold,
        "lineitem_stats_collection": q.lineitem_stats_collection,
        "customers_morans_i": q.customers_morans_i,
        "docs_minimizer_overlap": q.docs_minimizer_overlap,
        "suppliers_edge_support": q.suppliers_edge_support,
        "suppliers_rank_tau": q.suppliers_rank_tau,
        "customers_ransac_line": q.customers_ransac_line,
        "images_seam_energy": q.images_seam_energy,
        "suppliers_graph_diameter": q.suppliers_graph_diameter,
        "docs_containment_pairs": q.docs_containment_pairs,
        "events_runs_test": q.events_runs_test,
        "suppliers_ktruss": q.suppliers_ktruss,
        "events_theil_sen": q.events_theil_sen,
        "suppliers_mst": q.suppliers_mst,
        "suppliers_temporal_reach": q.suppliers_temporal_reach,
        "events_time_to_convert": q.events_time_to_convert,
        "customers_flow_octants": q.customers_flow_octants,
        "rects_density_probe": q.rects_density_probe,
        "images_caption_quality": q.images_caption_quality,
        "events_stay_points": q.events_stay_points,
        "tpch_q22": q.tpch_q22,
        "tpch_q7": q.tpch_q7,
        "tpch_q6": q.tpch_q6,
        "tpch_q15": q.tpch_q15,
        "tpch_q17": q.tpch_q17,
        "tpch_q8": q.tpch_q8,
        "tpch_q9": q.tpch_q9,
        "tpch_q11": q.tpch_q11,
        "tpch_q21": q.tpch_q21,
        "tpch_q2": q.tpch_q2,
        "tpch_q16": q.tpch_q16,
        "tpch_q20": q.tpch_q20,
        "events_last_order_asof": q.events_last_order_asof,
        "orders_next_order_asof": q.orders_next_order_asof,
        "segments_intersect_pairs": q.segments_intersect_pairs,
        "rects_polygonize": q.rects_polygonize,
        "tpch_q3": q.tpch_q3,
        "rects_focal_counts": q.rects_focal_counts,
        "orders_interval_overlap": q.orders_interval_overlap,
        "parts_ring_validity": q.parts_ring_validity,
        "orders_global_rank": q.orders_global_rank,
        "orders_upsert": q.orders_upsert,
        "lineitem_price_winsorized": q.lineitem_price_winsorized,
        "lineitem_price_outliers": q.lineitem_price_outliers,
        "lineitem_price_band_join": q.lineitem_price_band_join,
        "orders_triangle_count": q.orders_triangle_count,
        "orders_hash_sample": q.orders_hash_sample,
        "orders_weighted_sample": q.orders_weighted_sample,
        "lineitem_price_quantiles": q.lineitem_price_quantiles,
        "lineitem_price_quantiles_sketch": q.lineitem_price_quantiles_sketch,
        "lineitem_quantiles_by_flag": q.lineitem_quantiles_by_flag,
        "parts_by_brand": q.parts_by_brand,
        "revenue_by_region": q.revenue_by_region,
        "revenue_by_region_shuffle": q.revenue_by_region_shuffle,
        "customers_with_nation": q.customers_with_nation,
        "customers_without_orders": q.customers_without_orders,
        "top_lineitems_per_supplier": q.top_lineitems_per_supplier,
        "min_price_lineitems": q.min_price_lineitems,
        # spatial engine (A1 bbox, M tile assign, A3 tile counts,
        # §2.5 PIP join + kNN, M1/M2 codec round-trip)
        "points_bbox": q.points_bbox,
        "tile_assign": q.tile_assign,
        "tile_adaptive_counts": q.tile_adaptive_counts,
        "customers_zorder_lookup": q.customers_zorder_lookup,
        "supplier_chains_merge": q.supplier_chains_merge,
        "tile_counts": q.tile_counts,
        "tile_rollup": q.tile_rollup,
        "customers_tile_pyramid": q.customers_tile_pyramid,
        "pip_rect_join": q.pip_rect_join,
        "pip_rect_join_s2": q.pip_rect_join_s2,
        "rects_tile_clip": q.rects_tile_clip,
        "rects_mvt_tiles": q.rects_mvt_tiles,
        "rects_rasterize": q.rects_rasterize,
        "rects_distance_field": q.rects_distance_field,
        "rects_contours": q.rects_contours,
        "rects_pole_of_inaccessibility": q.rects_pole_of_inaccessibility,
        "knn_suppliers": q.knn_suppliers,
        "knn_suppliers_s2": q.knn_suppliers_s2,
        "suppliers_within_2000km": q.suppliers_within_2000km,
        "rects_overlap_join": q.rects_overlap_join,
        "codec_roundtrip_points": q.codec_roundtrip_points,
        "codec_wkb_roundtrip": q.codec_wkb_roundtrip,
        "codec_geoparquet_roundtrip": q.codec_geoparquet_roundtrip,
        "tri_geometry_measures": q.tri_geometry_measures,
        "lines_simplify": q.lines_simplify,
        "suppliers_components": q.suppliers_components,
        "suppliers_bfs_hops": q.suppliers_bfs_hops,
        "suppliers_random_walks": q.suppliers_random_walks,
        # documents: dedup + text analysis
        "docs_exact_dedup": q.docs_exact_dedup,
        "docs_token_stats": q.docs_token_stats,
        "docs_quality": q.docs_quality,
        "docs_langid": q.docs_langid,
        "docs_top_terms": q.docs_top_terms,
        "docs_tfidf_top": q.docs_tfidf_top,
        "docs_bm25_topk": q.docs_bm25_topk,
        "orders_digest_by_priority": q.orders_digest_by_priority,
        "docs_inverted_lookup": q.docs_inverted_lookup,
        "docs_jaccard_pairs": q.docs_jaccard_pairs,
        "docs_dup_clusters": q.docs_dup_clusters,
        "docs_fingerprint": q.docs_fingerprint,
        "docs_pii_scrub": q.docs_pii_scrub,
        "docs_repetition_stats": q.docs_repetition_stats,
        "docs_boilerplate_prune": q.docs_boilerplate_prune,
        "customers_areal_value": q.customers_areal_value,
        "suppliers_union_area": q.suppliers_union_area,
        "events_trajectory": q.events_trajectory,
        "docs_stratified_split": q.docs_stratified_split,
        "customers_kernel_interp": q.customers_kernel_interp,
        "docs_repeated_spans": q.docs_repeated_spans,
        "docs_top_bigrams": q.docs_top_bigrams,
        "lineitem_profile": q.lineitem_profile,
        "docs_minhash_pairs": q.docs_minhash_pairs,
        "docs_minhash_dedup": q.docs_minhash_dedup,
        "docs_simhash_pairs": q.docs_simhash_pairs,
        # embeddings: similarity search + near-dup
        "embeddings_topk": q.embeddings_topk,
        "embeddings_topk_filtered": q.embeddings_topk_filtered,
        "embeddings_topk_ivf": q.embeddings_topk_ivf,
        "embeddings_dup_pairs": q.embeddings_dup_pairs,
        # image pipeline (rows-only: procedural payloads)
        "images_decode_stats": q.images_decode_stats,
        "images_tile_counts": q.images_tile_counts,
        "images_in_rects": q.images_in_rects,
        "images_footprint_overlap": q.images_footprint_overlap,
        "images_knn_s2": q.images_knn_s2,
        "images_patchify": q.images_patchify,
        "images_augment": q.images_augment,
        "images_resize": q.images_resize,
        "images_phash_pairs": q.images_phash_pairs,
        "images_png_pipeline": q.images_png_pipeline,
        "images_jpeg_pipeline": q.images_jpeg_pipeline,
        "images_dct_phash_pairs": q.images_dct_phash_pairs,
        "images_zonal_stats": q.images_zonal_stats,
        "images_pyramid": q.images_pyramid,
        "images_mosaic": q.images_mosaic,
        # audio / video pipelines (rows-only: procedural payloads)
        "audio_features": q.audio_features,
        "audio_resample": q.audio_resample,
        "video_frame_sample": q.video_frame_sample,
    }



def _pagerank_sql(iters: int = 10, damping: float = 0.85,
                  k: int = 20) -> str:
    """Iterative-CTE PageRank twin of ``parts_pagerank_top`` (fixed
    ``iters`` unrolled as chained CTEs — DuckDB 1.0 recursive CTEs
    cannot aggregate over the recursive term).  Same semantics as
    functions/graph.pagerank: nodes = src+dst union, out-degree
    division, dangling mass redistributed uniformly, r0 = 1/N; float
    sums agree with the distributed path to far inside the 1e-9
    hash-rounding tolerance."""
    d = repr(damping)
    ctes = [
        """e AS MATERIALIZED (
          SELECT DISTINCT l_partkey AS u,
                 l_suppkey + 1000000000 AS v FROM lineitem)""",
        """nodes AS MATERIALIZED (
          SELECT node, CAST(SUM(deg) AS BIGINT) AS deg FROM (
            SELECT u AS node, COUNT(*) AS deg FROM e GROUP BY u
            UNION ALL
            SELECT DISTINCT v AS node, 0 AS deg FROM e) t
          GROUP BY node)""",
        "nn AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM nodes)",
        """r0 AS MATERIALIZED (
          SELECT node, 1.0 / (SELECT n FROM nn) AS rank, deg
          FROM nodes)""",
    ]
    for i in range(1, iters + 1):
        p = f"r{i - 1}"
        # MATERIALIZED is load-bearing: DuckDB inlines plain CTEs,
        # and each level references the previous one twice — the
        # inlined plan grows exponentially in ``iters``
        ctes.append(f"""r{i} AS MATERIALIZED (
          SELECT nd.node,
                 (1.0 - {d}) / (SELECT n FROM nn)
                 + {d} * (SELECT COALESCE(SUM(rank), 0) FROM {p}
                          WHERE deg = 0) / (SELECT n FROM nn)
                 + {d} * COALESCE(c.c, 0) AS rank,
                 nd.deg
          FROM nodes nd LEFT JOIN (
            SELECT e.v AS node, SUM(r.rank / r.deg) AS c
            FROM e JOIN {p} r ON r.node = e.u GROUP BY e.v) c
            ON c.node = nd.node)""")
    return ("WITH " + ",\n".join(ctes)
            + f"\nSELECT node, rank FROM r{iters} "
            + f"ORDER BY rank DESC, node LIMIT {k}")


def _markov_sql(iters: int = 12) -> str:
    """Unrolled MATERIALIZED-CTE twin of ``events_markov_stationary``
    (same shape as ``_pagerank_sql``): LEAD-window transition counts,
    row-normalized, powered ``iters`` times from uniform; types with
    no outgoing transition keep their mass."""
    ctes = [
        """seq AS MATERIALIZED (
          SELECT event_type AS s,
                 LEAD(event_type) OVER (
                     PARTITION BY user_id ORDER BY ts, event_id) AS t
          FROM events)""",
        """c AS MATERIALIZED (
          SELECT s, t, CAST(COUNT(*) AS DOUBLE) AS n FROM seq
          WHERE t IS NOT NULL GROUP BY s, t)""",
        """types AS MATERIALIZED (
          SELECT DISTINCT event_type AS s FROM events)""",
        "outdeg AS MATERIALIZED (SELECT s, SUM(n) AS tot FROM c GROUP BY s)",
        "nn AS (SELECT CAST(COUNT(*) AS DOUBLE) AS k FROM types)",
        """r0 AS MATERIALIZED (
          SELECT s, 1.0 / (SELECT k FROM nn) AS p FROM types)""",
    ]
    for i in range(1, iters + 1):
        prev = f"r{i - 1}"
        ctes.append(f"""r{i} AS MATERIALIZED (
          SELECT ty.s,
                 COALESCE((SELECT SUM(r.p * c.n / o.tot)
                           FROM {prev} r
                           JOIN c ON c.s = r.s
                           JOIN outdeg o ON o.s = r.s
                           WHERE c.t = ty.s), 0)
                 + COALESCE((SELECT r.p FROM {prev} r
                             LEFT JOIN outdeg o ON o.s = r.s
                             WHERE r.s = ty.s AND o.s IS NULL), 0)
                 AS p
          FROM types ty)""")
    return ("WITH " + ",\n".join(ctes)
            + f"\nSELECT s AS event_type, p AS prob FROM r{iters}")


def oracle_sql() -> dict[str, str]:
    from geobuf_ray.spatial.hexgrid import hex_axial_sql

    zx, zy = _tile_x(_LON, 8), _tile_y(_LAT, 8)
    hq, hr = hex_axial_sql("lon", "lat", 3.7)
    scq, scr = hex_axial_sql("clon", "clat", 3.7)
    ssq, ssr = hex_axial_sql("slon", "slat", 3.7)
    return {
        "customers_hexbin": f"""
            WITH pt AS (SELECT {_LON} AS lon, {_LAT} AS lat FROM customer)
            SELECT {hq} AS hex_q, {hr} AS hex_r, COUNT(*) AS n_points
            FROM pt GROUP BY hex_q, hex_r
        """,
        "parts_pagerank_top": _pagerank_sql(),
        "events_markov_stationary": _markov_sql(),
        "suppliers_assortativity": """
            WITH k AS (SELECT s_suppkey AS u FROM supplier),
            e0 AS (
              SELECT u, u - u % 7 AS v FROM k
              UNION ALL SELECT u - u % 7, u FROM k
              UNION ALL SELECT u, u - 1 FROM k WHERE u % 10 = 0
              UNION ALL SELECT u - 1, u FROM k WHERE u % 10 = 0),
            deg AS (SELECT u AS node, COUNT(*) AS d FROM e0 GROUP BY u),
            j AS (SELECT du.d AS dj, dv.d AS dk
                  FROM e0
                  JOIN deg du ON du.node = e0.u
                  JOIN deg dv ON dv.node = e0.v)
            SELECT CAST(COUNT(*) AS BIGINT) AS m,
                   CAST(SUM(dj * dk) AS BIGINT) AS sum_jk,
                   CAST(SUM(dj) AS BIGINT) AS sum_j,
                   CAST(SUM(dj * dj) AS BIGINT) AS sum_j2
            FROM j
        """,
        "docs_char_trigrams_by_lang": """
            WITH pos AS (
              SELECT d.lang,
                     substr(d.text, CAST(i.i AS INTEGER), 3) AS tri
              FROM documents d,
                   LATERAL (SELECT unnest(generate_series(
                       1, length(d.text) - 2)) AS i) i),
            cnt AS (SELECT lang, tri, COUNT(*) AS n
                    FROM pos GROUP BY lang, tri),
            rk AS (SELECT lang, tri, n,
                          ROW_NUMBER() OVER (
                              PARTITION BY lang
                              ORDER BY n DESC, tri) AS r
                   FROM cnt)
            SELECT lang, tri, CAST(n AS BIGINT) AS n
            FROM rk WHERE r <= 10
            ORDER BY lang, n DESC, tri
        """,
        "docs_lang_source_chi2": """
            WITH cells AS (
              SELECT lang, source, CAST(COUNT(*) AS BIGINT) AS observed
              FROM documents GROUP BY lang, source)
            SELECT c.lang, c.source, c.observed,
                   CAST(SUM(c.observed) OVER (PARTITION BY c.lang)
                        AS BIGINT) AS row_total,
                   CAST(SUM(c.observed) OVER (PARTITION BY c.source)
                        AS BIGINT) AS col_total,
                   CAST(SUM(c.observed) OVER () AS BIGINT)
                       AS grand_total
            FROM cells c ORDER BY c.lang, c.source
        """,
        "docs_source_vocab_jaccard": """
            WITH tok AS (
              SELECT DISTINCT d.source AS s, t.tok
              FROM documents d,
                   UNNEST(regexp_split_to_array(d.text, '\\s+'))
                     AS t(tok)
              WHERE t.tok <> ''),
            v AS (SELECT s, CAST(COUNT(*) AS BIGINT) AS n
                  FROM tok GROUP BY s),
            pairs AS (SELECT a.s AS sa, b.s AS sb
                      FROM v a JOIN v b ON b.s > a.s),
            inter AS (
              SELECT a.s AS sa, b.s AS sb,
                     CAST(COUNT(*) AS BIGINT) AS ni
              FROM tok a JOIN tok b
                ON b.tok = a.tok AND b.s > a.s
              GROUP BY a.s, b.s)
            SELECT s AS src_a, s AS src_b, n AS n_inter,
                   n AS n_a, n AS n_b FROM v
            UNION ALL
            SELECT p.sa, p.sb, COALESCE(i.ni, 0),
                   va.n, vb.n
            FROM pairs p
            LEFT JOIN inter i ON i.sa = p.sa AND i.sb = p.sb
            JOIN v va ON va.s = p.sa
            JOIN v vb ON vb.s = p.sb
            ORDER BY src_a, src_b
        """,
        "orders_backlog_littles_law": """
            WITH o AS (
              SELECT CAST(o_orderdate AS DATE) AS d,
                     o_orderkey % 30 + 1 AS dur
              FROM orders),
            b AS (SELECT MIN(datediff('day', DATE '1970-01-01', d))
                         AS lo,
                         MAX(datediff('day', DATE '1970-01-01', d))
                         + 31 AS hi FROM o),
            spine AS (SELECT unnest(generate_series(
                (SELECT lo FROM b), (SELECT hi FROM b))) AS day),
            lvl AS (
              SELECT s.day, COUNT(o.d) AS backlog
              FROM spine s LEFT JOIN o
                ON datediff('day', DATE '1970-01-01', o.d) <= s.day
               AND s.day < datediff('day', DATE '1970-01-01', o.d)
                           + o.dur
              GROUP BY s.day)
            SELECT CAST((SELECT SUM(dur) FROM o) AS BIGINT)
                       AS total_order_days,
                   CAST((SELECT hi - lo + 1 FROM b) AS BIGINT)
                       AS span_days,
                   CAST(MAX(backlog) AS BIGINT) AS peak_backlog,
                   CAST((SELECT MIN(day) FROM lvl
                         WHERE backlog = (SELECT MAX(backlog)
                                          FROM lvl)) AS BIGINT)
                       AS peak_day
            FROM lvl
        """,
        "orders_percent_rank_probe": """
            WITH probe AS (SELECT o_orderkey FROM orders
                           ORDER BY o_orderkey LIMIT 8),
            ranked AS (
              SELECT o_orderkey,
                     CAST(RANK() OVER (
                         PARTITION BY o_orderpriority
                         ORDER BY CAST(round(o_totalprice * 100)
                                       AS BIGINT)) - 1 AS BIGINT)
                         AS n_less,
                     CAST(COUNT(*) OVER (
                         PARTITION BY o_orderpriority) AS BIGINT)
                         AS n_partition
              FROM orders)
            SELECT r.o_orderkey, r.n_less, r.n_partition,
                   CAST(r.n_less AS DOUBLE)
                   / GREATEST(r.n_partition - 1, 1) AS pct_rank
            FROM ranked r JOIN probe p USING (o_orderkey)
            ORDER BY r.o_orderkey
        """,
        "events_interarrival_moments": """
            WITH g AS (
              SELECT event_type,
                     epoch_us(LEAD(ts) OVER (
                         PARTITION BY event_type
                         ORDER BY ts, event_id)) - epoch_us(ts) AS gap
              FROM events)
            SELECT event_type,
                   CAST(COUNT(gap) AS BIGINT) AS n_gaps,
                   CAST(SUM(gap) AS BIGINT) AS sum_gap_us,
                   CAST(SUM(CAST(gap AS HUGEINT) * gap) AS VARCHAR)
                       AS sum_gap_sq_us
            FROM g WHERE gap IS NOT NULL
            GROUP BY event_type ORDER BY event_type
        """,
        "events_cumulative_distinct": """
            WITH fh AS (
              SELECT user_id,
                     MIN(epoch_us(ts) // 3600000000) AS h
              FROM events GROUP BY user_id),
            bounds AS (
              SELECT MIN(epoch_us(ts) // 3600000000) AS lo,
                     MAX(epoch_us(ts) // 3600000000) AS hi FROM events),
            spine AS (
              SELECT unnest(generate_series(
                  (SELECT lo FROM bounds),
                  (SELECT hi FROM bounds))) AS hour)
            SELECT s.hour,
                   CAST((SELECT COUNT(*) FROM fh
                         WHERE fh.h <= s.hour) AS BIGINT)
                       AS distinct_users
            FROM spine s ORDER BY s.hour
        """,
        "lineitem_ols_qty_price": """
            SELECT l_returnflag,
                   CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT)
                       AS sum_x,
                   CAST(SUM(CAST(round(l_extendedprice * 100)
                                 AS BIGINT)) AS BIGINT) AS sum_y,
                   CAST(SUM(CAST(l_quantity AS BIGINT)
                            * CAST(round(l_extendedprice * 100)
                                   AS BIGINT)) AS BIGINT) AS sum_xy,
                   CAST(SUM(CAST(l_quantity AS BIGINT)
                            * CAST(l_quantity AS BIGINT)) AS BIGINT)
                       AS sum_x2
            FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
        """,
        "orders_revenue_hhi": """
            WITH pc AS (
              SELECT o.o_custkey,
                     CAST(SUM(CAST(round(o.o_totalprice * 100)
                                   AS BIGINT)) AS BIGINT) AS rev
              FROM orders o GROUP BY o.o_custkey),
            rr AS (
              SELECT r.r_name AS region, pc.rev
              FROM pc
              JOIN customer c ON c.c_custkey = pc.o_custkey
              JOIN nation n ON n.n_nationkey = c.c_nationkey
              JOIN region r ON r.r_regionkey = n.n_regionkey)
            SELECT region,
                   CAST(COUNT(*) AS BIGINT) AS n_customers,
                   CAST(SUM(rev) AS BIGINT) AS sum_cents,
                   CAST(SUM(CAST(rev AS HUGEINT) * rev) AS VARCHAR)
                       AS sum_sq_cents
            FROM rr GROUP BY region ORDER BY region
        """,
        "events_window_funnel": """
            WITH s1 AS (SELECT user_id, ts FROM events
                        WHERE event_type = 'signup'),
            c2 AS (SELECT s1.user_id, s1.ts AS t1,
                     (SELECT MIN(v.ts) FROM events v
                      WHERE v.user_id = s1.user_id
                        AND v.event_type = 'view'
                        AND v.ts > s1.ts) AS t2
                   FROM s1),
            c3 AS (SELECT c2.*,
                     (SELECT MIN(p.ts) FROM events p
                      WHERE p.user_id = c2.user_id
                        AND p.event_type = 'purchase'
                        AND p.ts > c2.t2) AS t3
                   FROM c2),
            d AS (SELECT user_id,
                    MAX(CASE WHEN t2 IS NOT NULL AND
                          epoch_us(t2) - epoch_us(t1)
                            <= 72 * 3600000000 THEN 1 ELSE 0 END) AS d2,
                    MAX(CASE WHEN t3 IS NOT NULL AND
                          epoch_us(t3) - epoch_us(t1)
                            <= 72 * 3600000000 THEN 1 ELSE 0 END) AS d3
                  FROM c3 GROUP BY user_id)
            SELECT 'signup' AS step, 1 AS depth,
                   (SELECT COUNT(DISTINCT user_id) FROM s1) AS n_users
            UNION ALL
            SELECT 'view', 2,
                   (SELECT CAST(COALESCE(SUM(d2), 0) AS BIGINT) FROM d)
            UNION ALL
            SELECT 'purchase', 3,
                   (SELECT CAST(COALESCE(SUM(d3), 0) AS BIGINT) FROM d)
            ORDER BY depth
        """,
        "events_holt_hourly": """
            WITH RECURSIVE bounds AS (
              SELECT MIN(epoch_us(ts) // 3600000000) AS lo,
                     MAX(epoch_us(ts) // 3600000000) AS hi FROM events),
            spine AS MATERIALIZED (
              SELECT t.event_type AS typ,
                     g.h - (SELECT lo FROM bounds) AS t,
                     COALESCE(c.n, 0) AS y
              FROM (SELECT DISTINCT event_type FROM events) t
              CROSS JOIN (SELECT unnest(generate_series(
                            (SELECT lo FROM bounds),
                            (SELECT hi FROM bounds))) AS h) g
              LEFT JOIN (SELECT event_type,
                                epoch_us(ts) // 3600000000 AS h,
                                COUNT(*) AS n
                         FROM events GROUP BY 1, 2) c
                ON c.event_type = t.event_type AND c.h = g.h),
            ht(typ, t, l, b) AS (
              SELECT s0.typ, 1,
                     CAST(s0.y AS DOUBLE),
                     CAST(s1.y AS DOUBLE) - CAST(s0.y AS DOUBLE)
              FROM spine s0 JOIN spine s1
                ON s1.typ = s0.typ AND s1.t = 1
              WHERE s0.t = 0
              UNION ALL
              SELECT s.typ, h.t + 1,
                     0.5 * s.y + 0.5 * (h.l + h.b),
                     0.25 * ((0.5 * s.y + 0.5 * (h.l + h.b)) - h.l)
                     + 0.75 * h.b
              FROM ht h JOIN spine s
                ON s.typ = h.typ AND s.t = h.t)
            SELECT typ AS event_type, l AS level_end, b AS trend_end,
                   l + 24 * b AS forecast_24h
            FROM ht
            WHERE t = (SELECT MAX(t) FROM spine) + 1
        """,
        "parts_assoc_rules": """
            WITH lp AS (SELECT DISTINCT l_orderkey AS o,
                               l_partkey AS p FROM lineitem),
            isupp AS (SELECT p, COUNT(*) AS n FROM lp GROUP BY p),
            psupp AS (
              SELECT a.p AS pa_, b.p AS pb_, COUNT(*) AS nab
              FROM lp a JOIN lp b ON b.o = a.o AND b.p > a.p
              GROUP BY a.p, b.p HAVING COUNT(*) >= 2),
            tot AS (SELECT COUNT(DISTINCT o) AS t FROM lp),
            rules AS (
              SELECT pa_ AS p1, pb_ AS p2, nab FROM psupp
              UNION ALL SELECT pb_, pa_, nab FROM psupp)
            SELECT r.p1, r.p2, CAST(r.nab AS BIGINT) AS n_ab,
                   CAST(ia.n AS BIGINT) AS n_a,
                   CAST(ib.n AS BIGINT) AS n_b,
                   CAST((SELECT t FROM tot) AS BIGINT) AS n_orders,
                   CAST(r.nab AS DOUBLE) / ia.n AS confidence
            FROM rules r
            JOIN isupp ia ON ia.p = r.p1
            JOIN isupp ib ON ib.p = r.p2
            ORDER BY confidence DESC, r.p1, r.p2 LIMIT 20
        """,
        "parts_frequent_triples": """
            WITH lp AS (SELECT DISTINCT l_orderkey AS o,
                               l_partkey AS p FROM lineitem),
            tri AS (
              SELECT a.p AS p1, b.p AS p2, c.p AS p3,
                     COUNT(*) AS n_orders
              FROM lp a
              JOIN lp b ON b.o = a.o AND b.p > a.p
              JOIN lp c ON c.o = a.o AND c.p > b.p
              GROUP BY a.p, b.p, c.p
              HAVING COUNT(*) >= 2)
            SELECT p1, p2, p3, n_orders FROM tri
            ORDER BY n_orders DESC, p1, p2, p3 LIMIT 20
        """,
        "events_top_users_mg": """
            SELECT user_id, COUNT(*) AS n_events FROM events
            GROUP BY user_id ORDER BY n_events DESC, user_id LIMIT 10
        """,
        "suppliers_sssp": """
            WITH RECURSIVE e AS (
              SELECT u, v, (u * 31 + v * 17) % 100 + 1 AS w FROM (
                SELECT a.u,
                       32 * (a.u // 32 + 1) + (a.u * 7 + j.j * 13) % 32
                         AS v
                FROM (SELECT unnest(generate_series(0, 223)) AS u) a,
                     (SELECT unnest(generate_series(0, 2)) AS j) j)),
            walk(node, d) AS (
              SELECT s.s, 0 FROM (SELECT unnest([0, 1, 2, 3]) AS s) s
              UNION
              SELECT e.v, w.d + e.w FROM walk w JOIN e ON e.u = w.node)
            SELECT node, CAST(MIN(d) AS BIGINT) AS dist
            FROM walk GROUP BY node
        """,
        "tpch_q5": """
            SELECT n_name,
                   CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l_discount * 100)
                                          AS BIGINT)))
                        AS BIGINT) AS revenue_c2
            FROM customer, orders, lineitem, supplier, nation, region
            WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
              AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
              AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
              AND r_name = 'ASIA'
              AND o_orderdate >= DATE '1996-01-01'
              AND o_orderdate < DATE '1998-01-01'
            GROUP BY n_name
        """,
        "tpch_q10": """
            SELECT c_custkey AS custkey, c_name,
                   CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l_discount * 100)
                                          AS BIGINT)))
                        AS BIGINT) AS revenue_c2,
                   CAST(round(c_acctbal * 100) AS BIGINT) AS acct_cents,
                   n_name
            FROM customer, orders, lineitem, nation
            WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
              AND o_orderdate >= DATE '1996-01-01'
              AND o_orderdate < DATE '1996-04-01'
              AND l_returnflag = 'R'
              AND c_nationkey = n_nationkey
            GROUP BY c_custkey, c_name, c_acctbal, n_name
            ORDER BY revenue_c2 DESC, custkey
            LIMIT 20
        """,
        "customers_map_match": """
            WITH sp AS (SELECT s_suppkey,
                          CAST((s_suppkey * 7919) % 36000 - 18000
                               AS BIGINT) AS sx,
                          CAST((s_suppkey * 104729) % 17000 - 8500
                               AS BIGINT) AS sy
                        FROM supplier),
            seg AS (SELECT s_suppkey AS seg_id, sx AS ax, sy AS ay,
                           LEAD(sx) OVER (ORDER BY s_suppkey) AS bx,
                           LEAD(sy) OVER (ORDER BY s_suppkey) AS by
                    FROM sp),
            segs AS (SELECT seg_id, ax, ay, bx - ax AS abx,
                            by - ay AS aby
                     FROM seg WHERE bx IS NOT NULL
                       AND (bx - ax) * (bx - ax)
                           + (by - ay) * (by - ay) > 0),
            cp AS (SELECT c_custkey,
                     CAST((c_custkey * 7919) % 36000 - 18000
                          AS BIGINT) AS px,
                     CAST((c_custkey * 104729) % 17000 - 8500
                          AS BIGINT) AS py
                   FROM customer),
            tt AS (SELECT c_custkey, seg_id, px, py, ax, ay, abx, aby,
                     LEAST(GREATEST(
                       CAST((px - ax) * abx + (py - ay) * aby
                            AS DOUBLE)
                       / CAST(abx * abx + aby * aby AS DOUBLE),
                       0), 1) AS t
                   FROM cp, segs),
            dd AS (SELECT c_custkey, seg_id,
                     (px - (ax + t * abx)) * (px - (ax + t * abx))
                     + (py - (ay + t * aby)) * (py - (ay + t * aby))
                       AS d2
                   FROM tt),
            r AS (SELECT c_custkey, seg_id,
                    ROW_NUMBER() OVER (PARTITION BY c_custkey
                                       ORDER BY d2, seg_id) AS rn
                  FROM dd)
            SELECT seg_id,
                   CAST(COUNT(*) AS BIGINT) AS n_customers,
                   CAST(SUM(c_custkey) AS BIGINT) AS sum_custkey
            FROM r WHERE rn = 1
            GROUP BY seg_id
            ORDER BY seg_id
        """,
        "events_by_segment_salted": """
            SELECT c_mktsegment,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(SUM(CAST(round(value * 100) AS BIGINT))
                        AS BIGINT) AS value_c2
            FROM events, customer
            WHERE user_id = c_custkey
            GROUP BY c_mktsegment
            ORDER BY c_mktsegment
        """,
        "tpch_q19": """
            SELECT CAST(SUM(
                CAST(round(l_extendedprice * 100) AS BIGINT)
                * (100 - CAST(round(l_discount * 100) AS BIGINT))
            ) AS BIGINT) AS revenue_c2
            FROM lineitem, part
            WHERE p_partkey = l_partkey AND (
                (p_brand = 'Brand#12' AND p_size BETWEEN 1 AND 5
                 AND l_quantity BETWEEN 1 AND 11)
             OR (p_brand = 'Brand#23' AND p_size BETWEEN 1 AND 10
                 AND l_quantity BETWEEN 10 AND 20)
             OR (p_brand = 'Brand#34' AND p_size BETWEEN 1 AND 15
                 AND l_quantity BETWEEN 20 AND 30))
        """,
        "tpch_q22": """
            WITH s AS (SELECT CAST(SUM(CAST(round(c_acctbal * 100)
                                            AS BIGINT)) AS BIGINT)
                               AS sp,
                              COUNT(*) AS np
                       FROM customer WHERE c_acctbal > 0)
            SELECT c_nationkey,
                   CAST(COUNT(*) AS BIGINT) AS numcust,
                   CAST(SUM(CAST(round(c_acctbal * 100) AS BIGINT))
                        AS BIGINT) AS totacct_c2
            FROM customer, s
            WHERE CAST(round(c_acctbal * 100) AS BIGINT) * s.np > s.sp
              AND NOT EXISTS (SELECT 1 FROM orders
                              WHERE o_custkey = c_custkey
                                AND o_orderdate >= DATE '1999-01-01')
            GROUP BY c_nationkey
            ORDER BY c_nationkey
        """,
        "tpch_q7": """
            SELECT supp_nation, cust_nation, l_year,
                   CAST(SUM(volume) AS BIGINT) AS revenue_c2
            FROM (
                SELECT n1.n_name AS supp_nation,
                       n2.n_name AS cust_nation,
                       CAST(year(l_shipdate) AS BIGINT) AS l_year,
                       CAST(round(l_extendedprice * 100) AS BIGINT)
                       * (100 - CAST(round(l_discount * 100)
                                     AS BIGINT)) AS volume
                FROM supplier, lineitem, orders, customer,
                     nation n1, nation n2
                WHERE s_suppkey = l_suppkey
                  AND o_orderkey = l_orderkey
                  AND c_custkey = o_custkey
                  AND s_nationkey = n1.n_nationkey
                  AND c_nationkey = n2.n_nationkey
                  AND ((n1.n_name = 'NATION_3'
                        AND n2.n_name = 'NATION_7')
                    OR (n1.n_name = 'NATION_7'
                        AND n2.n_name = 'NATION_3'))
                  AND l_shipdate >= DATE '1996-01-01'
                  AND l_shipdate < DATE '1998-01-01')
            GROUP BY supp_nation, cust_nation, l_year
            ORDER BY supp_nation, cust_nation, l_year
        """,
        "tpch_q4": """
            SELECT o_orderpriority,
                   CAST(COUNT(*) AS BIGINT) AS order_count
            FROM orders
            WHERE o_orderdate >= DATE '1996-01-01'
              AND o_orderdate < DATE '1996-04-01'
              AND EXISTS (SELECT 1 FROM lineitem
                          WHERE l_orderkey = o_orderkey
                            AND l_shipdate > o_orderdate)
            GROUP BY o_orderpriority
            ORDER BY o_orderpriority
        """,
        "tpch_q12": """
            SELECT l_returnflag,
                   CAST(SUM(CASE WHEN o_orderpriority IN
                                      ('1-URGENT', '2-HIGH')
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS high_line_count,
                   CAST(SUM(CASE WHEN o_orderpriority NOT IN
                                      ('1-URGENT', '2-HIGH')
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS low_line_count
            FROM orders, lineitem
            WHERE o_orderkey = l_orderkey
              AND l_shipdate >= DATE '1996-01-01'
              AND l_shipdate < DATE '1997-01-01'
            GROUP BY l_returnflag
            ORDER BY l_returnflag
        """,
        "tpch_q14": """
            SELECT CAST(SUM(CASE WHEN p_type = 'PROMO'
                                 THEN CAST(round(l_extendedprice * 100)
                                           AS BIGINT)
                                      * (100 - CAST(round(l_discount
                                                          * 100)
                                                    AS BIGINT))
                                 ELSE 0 END) AS BIGINT) AS promo_rev_c2,
                   CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l_discount * 100)
                                          AS BIGINT)))
                        AS BIGINT) AS total_rev_c2
            FROM lineitem, part
            WHERE l_partkey = p_partkey
              AND l_shipdate >= DATE '1996-03-01'
              AND l_shipdate < DATE '1996-04-01'
        """,
        "tpch_q13": """
            WITH pc AS (SELECT c_custkey,
                               COUNT(o_orderkey) AS c_count
                        FROM customer LEFT JOIN orders
                          ON c_custkey = o_custkey
                        GROUP BY c_custkey)
            SELECT c_count, COUNT(*) AS custdist
            FROM pc GROUP BY c_count
            ORDER BY custdist DESC, c_count DESC
        """,
        "tpch_q18": """
            SELECT c_name, c_custkey AS custkey, o_orderkey,
                   CAST(floor(epoch(o_orderdate) / 86400) AS BIGINT)
                       AS o_day,
                   CAST(round(o_totalprice * 100) AS BIGINT)
                       AS price_cents,
                   CAST(SUM(CAST(round(l_quantity) AS BIGINT))
                        AS BIGINT) AS sum_qty
            FROM customer, orders, lineitem
            WHERE o_orderkey IN (
                SELECT l_orderkey FROM lineitem GROUP BY l_orderkey
                HAVING SUM(CAST(round(l_quantity) AS BIGINT)) > 300)
              AND c_custkey = o_custkey AND o_orderkey = l_orderkey
            GROUP BY c_name, c_custkey, o_orderkey, o_orderdate,
                     o_totalprice
            ORDER BY price_cents DESC, o_orderkey
            LIMIT 100
        """,
        "orders_latest_order": """
            WITH r AS (SELECT o_custkey, o_orderkey,
                          CAST(round(o_totalprice * 100) AS BIGINT)
                              AS price_cents,
                          ROW_NUMBER() OVER (PARTITION BY o_custkey
                              ORDER BY o_orderdate DESC,
                                       o_orderkey DESC) AS rn
                       FROM orders)
            SELECT o_custkey, o_orderkey, price_cents FROM r WHERE rn = 1
        """,
        "orders_status_history": """
            WITH o AS (SELECT o_custkey,
                          CAST(floor(epoch(o_orderdate)/86400) AS BIGINT)
                            * 16777216 + o_orderkey AS t,
                          o_orderstatus AS v FROM orders),
            l AS (SELECT o_custkey, t, v,
                         LAG(v) OVER (PARTITION BY o_custkey ORDER BY t)
                           AS pv FROM o),
            g AS (SELECT o_custkey, t, v,
                         SUM(CASE WHEN pv IS NULL OR pv <> v
                                  THEN 1 ELSE 0 END)
                           OVER (PARTITION BY o_custkey ORDER BY t)
                           AS grp FROM l),
            r AS (SELECT o_custkey, grp, MIN(v) AS o_orderstatus,
                         MIN(t) AS valid_from FROM g
                  GROUP BY o_custkey, grp)
            SELECT o_custkey, o_orderstatus, valid_from,
                   LEAD(valid_from) OVER (PARTITION BY o_custkey
                                          ORDER BY valid_from)
                     AS valid_to
            FROM r
        """,
        "customers_nearest_supplier": """
            WITH c AS (SELECT c_custkey,
                              (c_custkey*7919)%36000 - 18000 AS x,
                              (c_custkey*104729)%17000 - 8500 AS y
                       FROM customer),
            s AS (SELECT s_suppkey,
                         (s_suppkey*7919)%36000 - 18000 AS x,
                         (s_suppkey*104729)%17000 - 8500 AS y
                  FROM supplier),
            r AS (SELECT c.c_custkey, s.s_suppkey,
                         ROW_NUMBER() OVER (PARTITION BY c.c_custkey
                             ORDER BY (c.x-s.x)*(c.x-s.x)
                                      + (c.y-s.y)*(c.y-s.y),
                                      s.s_suppkey) AS rn
                  FROM c CROSS JOIN s)
            SELECT s_suppkey, COUNT(*) AS n_customers
            FROM r WHERE rn = 1 GROUP BY s_suppkey
        """,
        "customers_dbscan": """
            WITH RECURSIVE p AS (SELECT c_custkey AS id,
                              (c_custkey*7919)%36000 - 18000 AS x,
                              (c_custkey*104729)%17000 - 8500 AS y
                            FROM customer),
            nbr AS (SELECT a.id AS i, b.id AS j FROM p a JOIN p b
                    ON (a.x-b.x)*(a.x-b.x) + (a.y-b.y)*(a.y-b.y)
                       <= 160000),
            cnt AS (SELECT i AS id, COUNT(*) AS n FROM nbr GROUP BY i),
            core AS (SELECT id FROM cnt WHERE n >= 3),
            ce AS (SELECT n.i AS u, n.j AS v FROM nbr n
                   JOIN core a ON n.i = a.id JOIN core b ON n.j = b.id),
            reach(src, node) AS (
                SELECT id, id FROM core
                UNION
                SELECT r.src, e.v FROM reach r JOIN ce e ON e.u = r.node),
            comp AS (SELECT src AS node, MIN(node) AS cluster
                     FROM reach GROUP BY src),
            border AS (SELECT n.i AS id, MIN(n.j) AS cnbr
                       FROM nbr n JOIN core b ON n.j = b.id
                       WHERE n.i NOT IN (SELECT id FROM core)
                       GROUP BY n.i)
            SELECT node AS custkey, cluster, TRUE AS is_core FROM comp
            UNION ALL
            SELECT b.id AS custkey, c.cluster, FALSE AS is_core
            FROM border b JOIN comp c ON c.node = b.cnbr
        """,
        "suppliers_hex_neighbors": f"""
            WITH cp0 AS (SELECT {_LON} AS clon, {_LAT} AS clat
                         FROM customer),
            cp AS (SELECT {scq} AS cq, {scr} AS cr FROM cp0),
            sp0 AS (SELECT s_suppkey, {_SLON} AS slon, {_SLAT} AS slat
                    FROM supplier),
            sp AS (SELECT s_suppkey, {ssq} AS sq, {ssr} AS sr FROM sp0)
            SELECT s_suppkey, COUNT(*) AS n_neighbors
            FROM sp JOIN cp
              ON (abs(sq - cq) + abs(sr - cr)
                  + abs(sq - cq + sr - cr)) / 2 <= 1
            GROUP BY s_suppkey
        """,
        "tpch_q1": """
            SELECT l_returnflag, l_linestatus,
                   CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
                   CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_price_cents,
                   COUNT(*) AS n_rows
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        "orders_by_segment": """
            SELECT c_mktsegment,
                   COUNT(*) AS n_orders,
                   CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS total_cents
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment
        """,
        "top_orders": """
            SELECT o_orderkey, CAST(round(o_totalprice * 100) AS BIGINT) AS total_cents
            FROM orders ORDER BY total_cents DESC, o_orderkey LIMIT 10
        """,
        "events_hourly": """
            SELECT CAST(epoch(date_trunc('hour', ts)) AS BIGINT) // 3600 AS hour_id,
                   COUNT(*) AS n_events,
                   CAST(SUM(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS value_cents
            FROM events GROUP BY hour_id
        """,
        "events_interval_coalesce": """
            WITH iv AS (
                SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS s,
                       CAST(epoch_us(ts) + (1 + event_id % 7)
                            * 3600000000 AS BIGINT) AS e
                FROM events
            ),
            m AS (
                SELECT *, MAX(e) OVER (
                    PARTITION BY user_id ORDER BY s, e
                    ROWS BETWEEN UNBOUNDED PRECEDING
                             AND 1 PRECEDING) AS pmax
                FROM iv
            ),
            isl AS (
                SELECT *, SUM(CASE WHEN pmax IS NULL OR s > pmax
                                   THEN 1 ELSE 0 END) OVER (
                    PARTITION BY user_id ORDER BY s, e
                    ROWS UNBOUNDED PRECEDING) AS island
                FROM m
            )
            SELECT user_id, MIN(s) AS island_start,
                   MAX(e) AS island_end, COUNT(*) AS n_intervals
            FROM isl GROUP BY user_id, island
        """,
        "events_value_histogram": """
            SELECT bins.bin,
                   CAST(bins.bin * 1000 AS BIGINT) AS bin_lo,
                   COALESCE(c.n_rows, 0) AS n_rows
            FROM (SELECT CAST(unnest(generate_series(0, 39)) AS BIGINT)
                         AS bin) bins
            LEFT JOIN (
                SELECT CAST(round(value * 100) AS BIGINT) // 1000
                           AS bin, COUNT(*) AS n_rows
                FROM events
                WHERE CAST(round(value * 100) AS BIGINT) >= 0
                  AND CAST(round(value * 100) AS BIGINT) < 40000
                GROUP BY 1) c USING (bin)
        """,
        "docs_source_mix": """
            SELECT doc_id, source FROM documents
            WHERE ((doc_id % 1000003) * 2654435761) % 4294967296 * 40
                  < 4294967296
                    * (1 + CAST(substr(source, 4) AS BIGINT))
        """,
        "events_props_extract": """
            SELECT CAST(regexp_extract(props, '"k": (\\d+)', 1)
                        AS BIGINT) AS k,
                   COUNT(*) AS n_events,
                   CAST(SUM(CAST(round(value * 100) AS BIGINT))
                        AS BIGINT) AS value_cents
            FROM events GROUP BY 1
        """,
        "events_cohort_retention": """
            WITH ud AS (
                SELECT DISTINCT user_id, CAST(ts AS DATE) AS d
                FROM events
            ),
            c AS (
                SELECT user_id, MIN(d) AS cd FROM ud GROUP BY user_id
            )
            SELECT CAST(c.cd - DATE '1970-01-01' AS BIGINT) AS cohort_day,
                   CAST(ud.d - c.cd AS BIGINT) AS day_offset,
                   COUNT(*) AS n_users
            FROM ud JOIN c USING (user_id)
            GROUP BY 1, 2
        """,
        "events_cusum_alarms": """
            WITH e AS (SELECT user_id,
                          (CAST(epoch_us(ts) AS BIGINT) // 1000000)
                            * 16777216 + event_id AS o,
                          CAST(round(value * 100) AS BIGINT) AS v
                       FROM events),
            s AS (SELECT user_id, o,
                     SUM(v - 5500) OVER (PARTITION BY user_id ORDER BY o)
                       AS ps
                  FROM e),
            c AS (SELECT user_id,
                     ps - LEAST(MIN(ps) OVER (PARTITION BY user_id
                                              ORDER BY o), 0) AS cusum
                  FROM s)
            SELECT user_id,
                   CAST(SUM(CASE WHEN cusum > 20000 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_alarms,
                   CAST(MAX(cusum) AS BIGINT) AS max_cusum
            FROM c GROUP BY user_id
        """,
        "events_value_twap": """
            WITH e AS (SELECT user_id,
                          CAST(epoch_us(ts) AS BIGINT) AS t,
                          CAST(round(value * 100) AS BIGINT) AS cents,
                          LEAD(CAST(epoch_us(ts) AS BIGINT)) OVER (
                              PARTITION BY user_id ORDER BY ts, event_id)
                            AS nt
                       FROM events)
            SELECT user_id,
                   CAST(COALESCE(SUM(cents * (nt - t)), 0) AS BIGINT)
                       AS wsum_cents_us,
                   CAST(COALESCE(SUM(nt - t), 0) AS BIGINT) AS dur_us
            FROM e GROUP BY user_id
        """,
        "events_value_autocorr": """
            WITH e AS (SELECT user_id,
                          CAST(round(value * 100) AS BIGINT) AS c,
                          LEAD(CAST(round(value * 100) AS BIGINT), 3)
                            OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id) AS y
                       FROM events)
            SELECT user_id,
                   COUNT(y) AS npairs,
                   CAST(SUM(CASE WHEN y IS NOT NULL THEN c END)
                        AS BIGINT) AS sum_x,
                   CAST(SUM(y) AS BIGINT) AS sum_y,
                   CAST(SUM(c * y) AS BIGINT) AS sum_xy,
                   CAST(SUM(CASE WHEN y IS NOT NULL THEN c * c END)
                        AS BIGINT) AS sum_xx,
                   CAST(SUM(y * y) AS BIGINT) AS sum_yy
            FROM e GROUP BY user_id HAVING COUNT(y) > 0
        """,
        "events_value_ewma": """
            WITH e AS (SELECT user_id, value,
                         ROW_NUMBER() OVER (PARTITION BY user_id
                             ORDER BY epoch_us(ts) // 1000000,
                                      event_id) AS rn,
                         COUNT(*) OVER (PARTITION BY user_id) AS n
                       FROM events)
            SELECT user_id,
                   round(SUM(CASE WHEN rn = 1
                                  THEN POW(0.9, n - 1) * value
                                  ELSE 0.1 * POW(0.9, n - rn) * value
                             END), 6) AS ewma_last
            FROM e GROUP BY user_id
        """,
        "orders_weighted_sample": """
            WITH h0 AS (SELECT o_orderkey, o_totalprice,
                          xor(CAST(o_orderkey AS HUGEINT),
                              17661420568835148476) AS x
                        FROM orders),
            -- xorshift-multiply mix, 64-bit: mulmod via 32-bit split
            -- ((xh*pl + xl*ph)*2^32 + xl*pl) mod 2^64
            h1 AS (SELECT o_orderkey, o_totalprice,
                     xor(x, x // 8589934592) AS x FROM h0),
            h2 AS (SELECT o_orderkey, o_totalprice,
                     (((x // 4294967296) * 2135587861
                       + (x % 4294967296) * 2654435769) * 4294967296
                      + (x % 4294967296) * 2135587861)
                     % 18446744073709551616 AS x FROM h1),
            h3 AS (SELECT o_orderkey, o_totalprice,
                     xor(x, x // 536870912) AS x FROM h2),
            h4 AS (SELECT o_orderkey, o_totalprice,
                     (((x // 4294967296) * 668265295
                       + (x % 4294967296) * 3266489917) * 4294967296
                      + (x % 4294967296) * 668265295)
                     % 18446744073709551616 AS x FROM h3),
            h5 AS (SELECT o_orderkey, o_totalprice,
                     xor(x, x // 4294967296) AS x FROM h4),
            pri AS (SELECT o_orderkey, o_totalprice,
                      ln(CAST(x // 2048 + 1 AS DOUBLE)
                         * 1.1102230246251565e-16) / o_totalprice
                      AS p
                    FROM h5)
            SELECT o_orderkey, o_totalprice
            FROM pri ORDER BY p DESC LIMIT 50
        """,
        "docs_pack_greedy": """
            WITH RECURSIVE d AS (
              SELECT doc_id, source, CAST(n_chars AS BIGINT) AS n_chars,
                     ROW_NUMBER() OVER (PARTITION BY source
                                        ORDER BY doc_id) AS rn
              FROM documents
            ),
            walk(source, rn, doc_id, n_chars, bin_id, fill) AS (
              SELECT source, rn, doc_id, n_chars, CAST(0 AS BIGINT),
                     n_chars
              FROM d WHERE rn = 1
              UNION ALL
              SELECT d.source, d.rn, d.doc_id, d.n_chars,
                     CASE WHEN w.fill + d.n_chars > 4096
                          THEN w.bin_id + 1 ELSE w.bin_id END,
                     CASE WHEN w.fill + d.n_chars > 4096
                          THEN d.n_chars ELSE w.fill + d.n_chars END
              FROM walk w JOIN d ON d.source = w.source
                                AND d.rn = w.rn + 1
            )
            SELECT doc_id, source, bin_id,
                   CAST(SUM(n_chars) OVER (PARTITION BY source, bin_id)
                        AS BIGINT) AS bin_fill
            FROM walk
        """,
        "events_kruskal_wallis": """
            WITH c AS (SELECT event_type,
                              CAST(round(value * 100) AS BIGINT) AS v
                       FROM events WHERE value IS NOT NULL),
            r AS (SELECT event_type, v,
                    RANK() OVER (ORDER BY v) AS rk,
                    COUNT(*) OVER (PARTITION BY v) AS tc
                  FROM c),
            tie AS (SELECT CAST(SUM(tc * tc * tc - tc) AS BIGINT)
                        AS tie_term
                    FROM (SELECT COUNT(*) AS tc FROM c GROUP BY v))
            SELECT event_type, COUNT(*) AS n,
                   CAST(SUM(2 * rk + tc - 1) AS BIGINT) AS ranksum2,
                   tie.tie_term
            FROM r, tie GROUP BY event_type, tie.tie_term
        """,
        "events_value_entropy": """
            WITH c AS (SELECT event_type,
                              CAST(round(value * 100) AS BIGINT) AS v
                       FROM events WHERE value IS NOT NULL),
            g AS (SELECT event_type, v, COUNT(*) AS c FROM c
                  GROUP BY 1, 2)
            SELECT event_type, CAST(SUM(c) AS BIGINT) AS n,
                   COUNT(*) AS n_distinct,
                   round(ln(SUM(c)) - SUM(c * ln(c)) / SUM(c), 6)
                       AS entropy_nats
            FROM g GROUP BY event_type
        """,
        "orders_compaction_plan": """
            WITH RECURSIVE fs AS (
              SELECT CAST(datediff('day', DATE '1970-01-01',
                                   o_orderdate) AS BIGINT) AS file_day,
                     CAST((year(o_orderdate) - 1970) * 12
                          + month(o_orderdate) - 1 AS VARCHAR)
                         AS epoch_month,
                     CAST(COUNT(*) * 128 AS BIGINT) AS bytes
              FROM orders GROUP BY 1, 2
            ),
            d AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY epoch_month
                                ORDER BY file_day) AS rn FROM fs),
            walk(epoch_month, rn, file_day, bytes, bin_id, fill) AS (
              SELECT epoch_month, rn, file_day, bytes,
                     CAST(0 AS BIGINT), bytes
              FROM d WHERE rn = 1
              UNION ALL
              SELECT d.epoch_month, d.rn, d.file_day, d.bytes,
                     CASE WHEN w.fill + d.bytes > 32768
                          THEN w.bin_id + 1 ELSE w.bin_id END,
                     CASE WHEN w.fill + d.bytes > 32768
                          THEN d.bytes ELSE w.fill + d.bytes END
              FROM walk w JOIN d ON d.epoch_month = w.epoch_month
                                AND d.rn = w.rn + 1
            )
            SELECT file_day, epoch_month, bin_id,
                   CAST(SUM(bytes) OVER (PARTITION BY epoch_month,
                                         bin_id) AS BIGINT) AS bin_fill
            FROM walk
        """,
        "events_rate_limiter": """
            WITH RECURSIVE e AS (
              SELECT user_id, epoch_us(ts) AS t,
                     ROW_NUMBER() OVER (PARTITION BY user_id
                         ORDER BY epoch_us(ts), event_id) AS rn
              FROM events),
            walk(user_id, rn, t, tok, adm) AS (
              SELECT user_id, rn, t,
                     CAST(240000000 AS BIGINT), CAST(1 AS BIGINT)
              FROM e WHERE rn = 1
              UNION ALL
              SELECT e.user_id, e.rn, e.t,
                     CASE WHEN LEAST(300000000, w.tok + (e.t - w.t))
                               >= 60000000
                          THEN LEAST(300000000, w.tok + (e.t - w.t))
                               - 60000000
                          ELSE LEAST(300000000, w.tok + (e.t - w.t))
                     END,
                     CASE WHEN LEAST(300000000, w.tok + (e.t - w.t))
                               >= 60000000
                          THEN 1 ELSE 0 END
              FROM walk w JOIN e ON e.user_id = w.user_id
                                AND e.rn = w.rn + 1
            )
            SELECT user_id, COUNT(*) AS n_events,
                   CAST(SUM(adm) AS BIGINT) AS n_admitted
            FROM walk GROUP BY user_id
        """,
        "customers_dp_histogram": f"""
            WITH RECURSIVE cells AS (
              SELECT c_nationkey AS nationkey, c_mktsegment AS segment,
                     COUNT(*) AS n_true
              FROM customer GROUP BY 1, 2
            ),
            segs AS (SELECT DISTINCT segment,
                            upper(hex(encode(segment))) AS hx,
                            octet_length(encode(segment)) AS nb
                     FROM cells),
            fnv AS (
              SELECT segment, hx, nb, 0 AS j,
                     CAST(14695981039346656037 AS HUGEINT) AS h
              FROM segs
              UNION ALL
              SELECT segment, hx, nb, j + 1,
                  (xor(h, CAST(
                      strpos('123456789ABCDEF', substr(hx, 2*j + 1, 1)) * 16 +
                      strpos('123456789ABCDEF', substr(hx, 2*j + 2, 1)) AS HUGEINT))
                   * 1099511628211) % 18446744073709551616
              FROM fnv WHERE j < nb
            ),
            fp AS (SELECT segment, h AS segfp FROM fnv WHERE j = nb),
            cell AS (SELECT c.nationkey, c.segment, c.n_true,
                       xor((CAST(c.nationkey AS HUGEINT) * 31)
                           % 18446744073709551616, fp.segfp) AS ck
                     FROM cells c JOIN fp USING (segment)),
            {_mix_ctes('ma', 'cell', 7000022)},
            g1 AS (SELECT nationkey, segment, n_true, ck,
                          CAST(floor(ln(CAST(x // 2048 + 1 AS DOUBLE) * 1.1102230246251565e-16) / -1.0) AS BIGINT) AS ga
                   FROM maf),
            {_mix_ctes('mb', 'g1', 7000023)},
            g2 AS (SELECT nationkey, segment, n_true, ga,
                          CAST(floor(ln(CAST(x // 2048 + 1 AS DOUBLE) * 1.1102230246251565e-16) / -1.0) AS BIGINT) AS gb
                   FROM mbf)
            SELECT CAST(nationkey AS BIGINT) AS nationkey, segment,
                   CAST(n_true AS BIGINT) AS n_true,
                   CAST(ga - gb AS BIGINT) AS noise,
                   CAST(n_true + ga - gb AS BIGINT) AS n_noisy
            FROM g2
        """,
        "orders_duplicate_payments": """
            WITH o AS (SELECT o_orderkey, o_custkey,
                              CAST(round(o_totalprice * 100) AS BIGINT)
                                  // 1000000 AS band,
                              o_orderdate AS d
                       FROM orders)
            SELECT LEAST(a.o_orderkey, b.o_orderkey) AS o_orderkey_a,
                   GREATEST(a.o_orderkey, b.o_orderkey) AS o_orderkey_b,
                   a.band AS amount_band,
                   CAST(abs(datediff('day', a.d, b.d)) AS BIGINT)
                       AS gap_days
            FROM o a JOIN o b
              ON a.o_custkey = b.o_custkey AND a.band = b.band
             AND a.o_orderkey < b.o_orderkey
             AND abs(datediff('day', a.d, b.d)) <= 30
        """,
        "orders_gaps_islands": """
            WITH d AS (SELECT DISTINCT o_custkey, o_orderdate
                       FROM orders),
            r AS (SELECT o_custkey, o_orderdate,
                         datediff('day', DATE '1970-01-01', o_orderdate)
                         - ROW_NUMBER() OVER (PARTITION BY o_custkey
                               ORDER BY o_orderdate) AS grp
                  FROM d),
            i AS (SELECT o_custkey, grp, COUNT(*) AS nd,
                         CAST(datediff('day', MIN(o_orderdate),
                                       MAX(o_orderdate)) AS BIGINT)
                             AS span
                  FROM r GROUP BY 1, 2),
            g AS (SELECT o_custkey,
                         datediff('day',
                             LAG(o_orderdate) OVER (
                                 PARTITION BY o_custkey
                                 ORDER BY o_orderdate),
                             o_orderdate) AS gap
                  FROM d),
            wg AS (SELECT o_custkey,
                          CAST(COALESCE(MAX(CASE WHEN gap > 1
                                             THEN gap END), 0)
                               AS BIGINT) AS widest
                   FROM g GROUP BY 1),
            best AS (SELECT o_custkey, span, nd,
                            ROW_NUMBER() OVER (PARTITION BY o_custkey
                                ORDER BY span DESC, nd DESC) AS rk
                     FROM i),
            cnt AS (SELECT o_custkey, COUNT(*) AS n_islands
                    FROM i GROUP BY 1)
            SELECT b.o_custkey, cnt.n_islands,
                   b.span AS longest_span_days,
                   CAST(b.nd AS BIGINT) AS longest_n_dates,
                   wg.widest AS widest_gap_days
            FROM best b
            JOIN cnt USING (o_custkey)
            JOIN wg USING (o_custkey)
            WHERE b.rk = 1
        """,
        "parts_abc_analysis": """
            WITH r AS (SELECT l_partkey,
                              CAST(SUM(CAST(round(l_extendedprice * 100)
                                   AS BIGINT)) AS BIGINT) AS rev
                       FROM lineitem GROUP BY 1),
            w AS (SELECT rev,
                         SUM(rev) OVER (ORDER BY rev DESC, l_partkey
                             ROWS UNBOUNDED PRECEDING) - rev AS prior,
                         SUM(rev) OVER () AS total
                  FROM r),
            c AS (SELECT rev, total,
                         CASE WHEN 100 * prior < 80 * total THEN 'A'
                              WHEN 100 * prior < 95 * total THEN 'B'
                              ELSE 'C' END AS abc_class
                  FROM w)
            SELECT abc_class, COUNT(*) AS n_parts,
                   CAST(SUM(rev) AS BIGINT) AS revenue_cents,
                   CAST(MAX(total) AS BIGINT) AS total_cents
            FROM c GROUP BY abc_class
        """,
        "orders_new_vs_returning": """
            WITH f AS (SELECT o_orderkey, o_orderdate,
                              ROW_NUMBER() OVER (PARTITION BY o_custkey
                                  ORDER BY o_orderdate, o_orderkey)
                                  AS rn
                       FROM orders)
            SELECT CAST((year(o_orderdate) - 1970) * 12
                        + month(o_orderdate) - 1 AS BIGINT)
                       AS epoch_month,
                   CAST(SUM(CASE WHEN rn = 1 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_new,
                   CAST(SUM(CASE WHEN rn = 1 THEN 0 ELSE 1 END)
                        AS BIGINT) AS n_returning
            FROM f GROUP BY 1
        """,
        "orders_cohort_ltv": """
            WITH c AS (SELECT o_custkey,
                              MIN((year(o_orderdate) - 1970) * 12
                                  + month(o_orderdate) - 1) AS cohort
                       FROM orders GROUP BY 1)
            SELECT CAST(c.cohort AS BIGINT) AS cohort_month,
                   CAST((year(o.o_orderdate) - 1970) * 12
                        + month(o.o_orderdate) - 1 - c.cohort
                        AS BIGINT) AS age_months,
                   COUNT(*) AS n_orders,
                   CAST(SUM(CAST(round(o.o_totalprice * 100)
                        AS BIGINT)) AS BIGINT) AS revenue_cents
            FROM orders o JOIN c USING (o_custkey)
            GROUP BY 1, 2
        """,
        "docs_vocab_growth": """
            WITH w AS (SELECT (MAX(doc_id) + 10) // 10 AS width
                       FROM documents),
            t AS (SELECT doc_id,
                         UNNEST(regexp_split_to_array(text, '\\s+'))
                             AS tok
                  FROM documents),
            f AS (SELECT tok, MIN(doc_id) AS md FROM t
                  WHERE tok <> '' GROUP BY tok),
            p AS (SELECT CAST(LEAST(f.md // w.width, 9) AS BIGINT)
                             AS bin,
                         COUNT(*) AS new_tokens
                  FROM f, w GROUP BY 1),
            a AS (SELECT UNNEST(range(10)) AS bin)
            SELECT CAST(a.bin AS BIGINT) AS bin,
                   CAST(COALESCE(p.new_tokens, 0) AS BIGINT)
                       AS new_tokens,
                   CAST(SUM(COALESCE(p.new_tokens, 0))
                        OVER (ORDER BY a.bin) AS BIGINT) AS cum_vocab
            FROM a LEFT JOIN p ON p.bin = a.bin
        """,
        "customers_knn_class": """
            WITH s AS (SELECT s_suppkey, s_nationkey,
                              (s_suppkey * 7919) % 36000 - 18000 AS sx,
                              (s_suppkey * 104729) % 17000 - 8500 AS sy
                       FROM supplier),
            c AS (SELECT c_custkey,
                         (c_custkey * 7919) % 36000 - 18000 AS cx,
                         (c_custkey * 104729) % 17000 - 8500 AS cy
                  FROM customer),
            d AS (SELECT c.c_custkey, s.s_nationkey,
                         ROW_NUMBER() OVER (PARTITION BY c.c_custkey
                             ORDER BY (c.cx - s.sx) * (c.cx - s.sx)
                                      + (c.cy - s.sy) * (c.cy - s.sy),
                                      s.s_suppkey) AS rk
                  FROM c, s),
            m AS (SELECT c_custkey, s_nationkey, COUNT(*) AS cnt
                  FROM d WHERE rk <= 5 GROUP BY 1, 2),
            b AS (SELECT c_custkey, s_nationkey,
                         ROW_NUMBER() OVER (PARTITION BY c_custkey
                             ORDER BY cnt DESC, s_nationkey) AS rk
                  FROM m)
            SELECT CAST(s_nationkey AS BIGINT) AS nationkey,
                   COUNT(*) AS n_customers
            FROM b WHERE rk = 1 GROUP BY 1
        """,
        "events_value_streaks": """
            WITH e AS (SELECT user_id, value,
                          ROW_NUMBER() OVER (PARTITION BY user_id
                              ORDER BY ts, event_id) AS rn,
                          LAG(value) OVER (PARTITION BY user_id
                              ORDER BY ts, event_id) AS pv
                       FROM events),
            f AS (SELECT user_id, rn,
                         CASE WHEN pv IS NULL OR value <= pv
                              THEN 1 ELSE 0 END AS brk
                  FROM e),
            g AS (SELECT user_id, rn,
                         SUM(brk) OVER (PARTITION BY user_id
                             ORDER BY rn) AS run_id
                  FROM f),
            r AS (SELECT user_id, run_id, COUNT(*) AS len
                  FROM g GROUP BY 1, 2)
            SELECT user_id, COUNT(*) AS n_runs,
                   CAST(MAX(len) AS BIGINT) AS longest_run
            FROM r GROUP BY user_id
        """,
        "lineitem_ship_delay_quantiles": """
            WITH d AS (SELECT l.l_returnflag,
                              CAST(datediff('day', o.o_orderdate,
                                   l.l_shipdate) AS BIGINT) AS delay
                       FROM lineitem l
                       JOIN orders o ON l.l_orderkey = o.o_orderkey)
            SELECT l_returnflag,
                   CAST(quantile_disc(delay, 0.5) AS BIGINT) AS p50,
                   CAST(quantile_disc(delay, 0.9) AS BIGINT) AS p90,
                   CAST(quantile_disc(delay, 0.99) AS BIGINT) AS p99
            FROM d GROUP BY l_returnflag
        """,
        "events_local_peaks": """
            WITH e AS (SELECT event_type, value,
                          LAG(value) OVER w AS pv,
                          LEAD(value) OVER w AS nv
                       FROM events
                       WINDOW w AS (PARTITION BY event_type
                                    ORDER BY ts, event_id))
            SELECT event_type, COUNT(*) AS n,
                   CAST(SUM(CASE WHEN pv IS NOT NULL
                                  AND nv IS NOT NULL
                                  AND value > pv AND value > nv
                             THEN 1 ELSE 0 END) AS BIGINT) AS n_peaks,
                   CAST(COALESCE(MAX(CASE WHEN pv IS NOT NULL
                                      AND nv IS NOT NULL
                                      AND value > pv AND value > nv
                                      THEN CAST(round(value * 100)
                                           AS BIGINT) END),
                                 -1099511627776) AS BIGINT)
                       AS max_peak_cents
            FROM e GROUP BY event_type
        """,
        "customers_tile_mode": f"""
            WITH t AS (SELECT {_tile_x(_LON, 6)} AS tile_x,
                              {_tile_y(_LAT, 6)} AS tile_y,
                              c_mktsegment AS segment
                       FROM customer),
            g AS (SELECT tile_x, tile_y, segment, COUNT(*) AS cnt
                  FROM t GROUP BY 1, 2, 3),
            b AS (SELECT tile_x, tile_y, segment, cnt,
                         ROW_NUMBER() OVER (PARTITION BY tile_x, tile_y
                             ORDER BY cnt DESC, segment) AS rk,
                         SUM(cnt) OVER (PARTITION BY tile_x, tile_y)
                             AS n_total
                  FROM g)
            SELECT tile_x, tile_y, segment AS mode_segment,
                   CAST(cnt AS BIGINT) AS n_mode,
                   CAST(n_total AS BIGINT) AS n_total
            FROM b WHERE rk = 1
        """,
        "suppliers_scorecard": """
            WITH j AS (SELECT l.l_suppkey,
                              CAST(round(l.l_extendedprice * 100)
                                   AS BIGINT) AS cents,
                              datediff('day', o.o_orderdate,
                                       l.l_shipdate) AS delay
                       FROM lineitem l
                       JOIN orders o ON l.l_orderkey = o.o_orderkey)
            SELECT l_suppkey AS s_suppkey, COUNT(*) AS n_shipments,
                   CAST(SUM(cents) AS BIGINT) AS revenue_cents,
                   CAST(SUM(CASE WHEN delay <= 60 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_on_time,
                   CAST(MAX(delay) AS BIGINT) AS worst_delay_days
            FROM j GROUP BY 1
        """,
        "customers_order_cadence": """
            WITH d AS (SELECT DISTINCT o_custkey, o_orderdate
                       FROM orders),
            g AS (SELECT o_custkey,
                         datediff('day',
                             LAG(o_orderdate) OVER (
                                 PARTITION BY o_custkey
                                 ORDER BY o_orderdate),
                             o_orderdate) AS gap
                  FROM d),
            m AS (SELECT o_custkey,
                         CAST(quantile_disc(gap, 0.5) AS BIGINT)
                             AS median_gap_days
                  FROM g WHERE gap IS NOT NULL GROUP BY 1),
            s AS (SELECT o_custkey, COUNT(*) AS n_dates,
                         MAX(o_orderdate) AS last
                  FROM d GROUP BY 1),
            t AS (SELECT MAX(o_orderdate) AS dmax FROM orders)
            SELECT s.o_custkey, CAST(s.n_dates AS BIGINT) AS n_dates,
                   m.median_gap_days,
                   CAST(datediff('day', s.last, t.dmax) AS BIGINT)
                       AS recency_days
            FROM s JOIN m USING (o_custkey), t
        """,
        "events_type_cooccurrence": """
            WITH d AS (SELECT DISTINCT user_id, event_type
                       FROM events),
            p AS (SELECT a.event_type AS type_a,
                         b.event_type AS type_b,
                         COUNT(*) AS n_users_both
                  FROM d a JOIN d b ON a.user_id = b.user_id
                                   AND a.event_type < b.event_type
                  GROUP BY 1, 2),
            m AS (SELECT event_type, COUNT(DISTINCT user_id) AS nu
                  FROM d GROUP BY 1),
            t AS (SELECT COUNT(DISTINCT user_id) AS total FROM d)
            SELECT p.type_a, p.type_b,
                   CAST(p.n_users_both AS BIGINT) AS n_users_both,
                   CAST(ma.nu AS BIGINT) AS n_users_a,
                   CAST(mb.nu AS BIGINT) AS n_users_b,
                   CAST(t.total AS BIGINT) AS n_users_total
            FROM p JOIN m ma ON ma.event_type = p.type_a
                   JOIN m mb ON mb.event_type = p.type_b, t
        """,
        "parts_return_rates": """
            SELECT p.p_brand, COUNT(*) AS n_shipments,
                   CAST(SUM(CASE WHEN l.l_returnflag = 'R'
                             THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_returned,
                   CAST(SUM(CASE WHEN l.l_returnflag = 'R'
                             THEN CAST(round(l.l_extendedprice * 100)
                                  AS BIGINT) ELSE 0 END) AS BIGINT)
                       AS returned_cents
            FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
            GROUP BY p.p_brand
        """,
        "docs_reading_stats": """
            SELECT source, COUNT(*) AS n_docs,
                   CAST(SUM(len(regexp_extract_all(text,
                        '[A-Za-z0-9]+'))) AS BIGINT) AS n_words,
                   CAST(SUM(len(regexp_extract_all(text,
                        '[.!?]+'))) AS BIGINT) AS n_sentences,
                   CAST(SUM(len(regexp_extract_all(text,
                        '[aeiouAEIOU]+'))) AS BIGINT)
                       AS n_vowel_groups
            FROM documents GROUP BY source
        """,
        "parts_price_dispersion": """
            SELECT l_partkey, COUNT(*) AS n_shipments,
                   CAST(MIN(c) AS BIGINT) AS min_cents,
                   CAST(MAX(c) AS BIGINT) AS max_cents,
                   CAST(SUM(c) AS BIGINT) AS sum_cents,
                   CAST(MAX(c) - MIN(c) AS BIGINT) AS spread_cents
            FROM (SELECT l_partkey,
                         CAST(round(l_extendedprice * 100) AS BIGINT)
                             AS c
                  FROM lineitem)
            GROUP BY l_partkey HAVING MAX(c) > MIN(c)
        """,
        "events_gap_histogram": """
            WITH e AS (SELECT event_type, epoch_us(ts) AS t,
                          LAG(epoch_us(ts)) OVER (
                              PARTITION BY event_type
                              ORDER BY epoch_us(ts), event_id) AS pt
                       FROM events),
            g AS (SELECT event_type, (t - pt) // 1000000 + 1 AS v
                  FROM e WHERE pt IS NOT NULL)
            SELECT event_type,
                   CAST(LEAST(CASE WHEN v >= 1099511627776 THEN 40 WHEN v >= 549755813888 THEN 39 WHEN v >= 274877906944 THEN 38 WHEN v >= 137438953472 THEN 37 WHEN v >= 68719476736 THEN 36 WHEN v >= 34359738368 THEN 35 WHEN v >= 17179869184 THEN 34 WHEN v >= 8589934592 THEN 33 WHEN v >= 4294967296 THEN 32 WHEN v >= 2147483648 THEN 31 WHEN v >= 1073741824 THEN 30 WHEN v >= 536870912 THEN 29 WHEN v >= 268435456 THEN 28 WHEN v >= 134217728 THEN 27 WHEN v >= 67108864 THEN 26 WHEN v >= 33554432 THEN 25 WHEN v >= 16777216 THEN 24 WHEN v >= 8388608 THEN 23 WHEN v >= 4194304 THEN 22 WHEN v >= 2097152 THEN 21 WHEN v >= 1048576 THEN 20 WHEN v >= 524288 THEN 19 WHEN v >= 262144 THEN 18 WHEN v >= 131072 THEN 17 WHEN v >= 65536 THEN 16 WHEN v >= 32768 THEN 15 WHEN v >= 16384 THEN 14 WHEN v >= 8192 THEN 13 WHEN v >= 4096 THEN 12 WHEN v >= 2048 THEN 11 WHEN v >= 1024 THEN 10 WHEN v >= 512 THEN 9 WHEN v >= 256 THEN 8 WHEN v >= 128 THEN 7 WHEN v >= 64 THEN 6 WHEN v >= 32 THEN 5 WHEN v >= 16 THEN 4 WHEN v >= 8 THEN 3 WHEN v >= 4 THEN 2 WHEN v >= 2 THEN 1 ELSE 0 END, 24)
                        AS BIGINT) AS bucket,
                   COUNT(*) AS n_gaps
            FROM g GROUP BY 1, 2
        """,
        "events_rolling_active_users": """
            WITH d AS (SELECT DISTINCT user_id,
                              CAST(datediff('day', DATE '1970-01-01',
                                   CAST(ts AS DATE)) AS BIGINT) AS day
                       FROM events),
            r AS (SELECT UNNEST(range((SELECT MIN(day) FROM d),
                                      (SELECT MAX(day) FROM d) + 1))
                      AS day)
            SELECT CAST(r.day AS BIGINT) AS day,
                   CAST(COUNT(DISTINCT d.user_id) AS BIGINT)
                       AS active_7d
            FROM r LEFT JOIN d ON d.day BETWEEN r.day - 6 AND r.day
            GROUP BY r.day
        """,
        "events_transitions": """
            WITH seq AS (
                SELECT event_type,
                       LEAD(event_type) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id
                       ) AS next_type
                FROM events)
            SELECT event_type, next_type, COUNT(*) AS n_transitions
            FROM seq WHERE next_type IS NOT NULL
            GROUP BY event_type, next_type
        """,
        "lineitem_price_decile_stats": """
            WITH c AS (SELECT CAST(round(l_extendedprice * 100) AS BIGINT)
                           AS v
                       FROM lineitem),
            b AS (SELECT
                    percentile_disc(0.1) WITHIN GROUP (ORDER BY v) AS b1,
                    percentile_disc(0.2) WITHIN GROUP (ORDER BY v) AS b2,
                    percentile_disc(0.3) WITHIN GROUP (ORDER BY v) AS b3,
                    percentile_disc(0.4) WITHIN GROUP (ORDER BY v) AS b4,
                    percentile_disc(0.5) WITHIN GROUP (ORDER BY v) AS b5,
                    percentile_disc(0.6) WITHIN GROUP (ORDER BY v) AS b6,
                    percentile_disc(0.7) WITHIN GROUP (ORDER BY v) AS b7,
                    percentile_disc(0.8) WITHIN GROUP (ORDER BY v) AS b8,
                    percentile_disc(0.9) WITHIN GROUP (ORDER BY v) AS b9
                  FROM c)
            SELECT 1 + (v > b1)::INT + (v > b2)::INT + (v > b3)::INT
                     + (v > b4)::INT + (v > b5)::INT + (v > b6)::INT
                     + (v > b7)::INT + (v > b8)::INT + (v > b9)::INT
                     AS decile,
                   COUNT(*) AS n_items,
                   CAST(SUM(v) AS BIGINT) AS sum_cents
            FROM c, b GROUP BY decile
        """,
        "lineitem_price_mad_outliers_by_flag": """
            WITH c AS (SELECT l_returnflag,
                              CAST(round(l_extendedprice * 100) AS BIGINT)
                                  AS v
                       FROM lineitem),
            m AS (SELECT l_returnflag,
                         percentile_disc(0.5) WITHIN GROUP (ORDER BY v)
                             AS med
                  FROM c GROUP BY l_returnflag),
            d AS (SELECT c.l_returnflag,
                         percentile_disc(0.5) WITHIN GROUP
                             (ORDER BY abs(v - med)) AS mad
                  FROM c JOIN m USING (l_returnflag)
                  GROUP BY c.l_returnflag)
            SELECT c.l_returnflag, COUNT(*) AS n_outliers,
                   CAST(SUM(v) AS BIGINT) AS outlier_cents
            FROM c JOIN m USING (l_returnflag) JOIN d USING (l_returnflag)
            WHERE 5 * abs(v - med) > 9 * mad
            GROUP BY c.l_returnflag
        """,
        "lineitem_price_mad_outliers": """
            WITH c AS (SELECT l_returnflag,
                              CAST(round(l_extendedprice * 100) AS BIGINT)
                                  AS v
                       FROM lineitem),
            m AS (SELECT percentile_disc(0.5) WITHIN GROUP (ORDER BY v)
                      AS med FROM c),
            d AS (SELECT percentile_disc(0.5) WITHIN GROUP
                      (ORDER BY abs(v - med)) AS mad FROM c, m)
            SELECT l_returnflag, COUNT(*) AS n_outliers,
                   CAST(SUM(v) AS BIGINT) AS outlier_cents
            FROM c, m, d WHERE 5 * abs(v - med) > 9 * mad
            GROUP BY l_returnflag
        """,
        "events_hourly_interp": """
            WITH hourly AS (
              SELECT event_type,
                     CAST(floor(epoch(ts) / 3600) AS BIGINT) AS hour,
                     CAST(SUM(CAST(round(value * 100) AS BIGINT))
                          AS BIGINT) AS cents
              FROM events GROUP BY 1, 2),
            bounds AS (SELECT min(hour) AS a, max(hour) AS b FROM hourly),
            spine AS (SELECT unnest(generate_series(a, b)) AS hour
                      FROM bounds),
            keys AS (SELECT DISTINCT event_type FROM events),
            j AS (SELECT k.event_type, s.hour,
                         CAST(h.cents AS DOUBLE) AS val
                  FROM spine s CROSS JOIN keys k
                  LEFT JOIN hourly h ON h.event_type = k.event_type
                                    AND h.hour = s.hour),
            w AS (SELECT event_type, hour, val,
                    last_value(CASE WHEN val IS NOT NULL THEN hour END
                               IGNORE NULLS)
                      OVER (PARTITION BY event_type ORDER BY hour) AS pt,
                    last_value(val IGNORE NULLS)
                      OVER (PARTITION BY event_type ORDER BY hour) AS pv,
                    first_value(CASE WHEN val IS NOT NULL THEN hour END
                                IGNORE NULLS)
                      OVER (PARTITION BY event_type ORDER BY hour
                            ROWS BETWEEN CURRENT ROW AND UNBOUNDED
                            FOLLOWING) AS nt,
                    first_value(val IGNORE NULLS)
                      OVER (PARTITION BY event_type ORDER BY hour
                            ROWS BETWEEN CURRENT ROW AND UNBOUNDED
                            FOLLOWING) AS nv
                  FROM j)
            SELECT event_type, hour,
                   CASE WHEN pt IS NULL OR nt IS NULL THEN NULL
                        WHEN nt = pt THEN pv
                        ELSE pv + (nv - pv) * (CAST(hour - pt AS DOUBLE)
                                               / CAST(nt - pt AS DOUBLE))
                   END AS cents_interp
            FROM w
        """,
        "events_hourly_gapfill": """
            WITH hourly AS (
              SELECT event_type,
                     CAST(floor(epoch(ts) / 3600) AS BIGINT) AS hour,
                     COUNT(*) AS n_events,
                     CAST(SUM(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
                         AS cents
              FROM events GROUP BY 1, 2),
            bounds AS (SELECT min(hour) AS a, max(hour) AS b FROM hourly),
            spine AS (SELECT unnest(generate_series(a, b)) AS hour
                      FROM bounds),
            keys AS (SELECT DISTINCT event_type FROM events)
            SELECT k.event_type, s.hour,
                   COALESCE(h.n_events, 0) AS n_events,
                   last_value(h.cents IGNORE NULLS) OVER (
                     PARTITION BY k.event_type ORDER BY s.hour)
                       AS cents_ffill
            FROM spine s CROSS JOIN keys k
            LEFT JOIN hourly h
              ON h.event_type = k.event_type AND h.hour = s.hour
        """,
        "events_funnel": """
            WITH s1 AS (
                SELECT user_id, MIN(ts) AS t FROM events
                WHERE event_type = 'signup' GROUP BY user_id
            ),
            s2 AS (
                SELECT e.user_id, MIN(e.ts) AS t
                FROM events e JOIN s1 USING (user_id)
                WHERE e.event_type = 'view' AND e.ts > s1.t
                GROUP BY e.user_id
            ),
            s3 AS (
                SELECT e.user_id, MIN(e.ts) AS t
                FROM events e JOIN s2 USING (user_id)
                WHERE e.event_type = 'click' AND e.ts > s2.t
                GROUP BY e.user_id
            ),
            s4 AS (
                SELECT e.user_id, MIN(e.ts) AS t
                FROM events e JOIN s3 USING (user_id)
                WHERE e.event_type = 'purchase' AND e.ts > s3.t
                GROUP BY e.user_id
            )
            SELECT CAST(1 AS BIGINT) AS step, 'signup' AS event_type,
                   (SELECT COUNT(*) FROM s1) AS n_users
            UNION ALL SELECT 2, 'view', (SELECT COUNT(*) FROM s2)
            UNION ALL SELECT 3, 'click', (SELECT COUNT(*) FROM s3)
            UNION ALL SELECT 4, 'purchase', (SELECT COUNT(*) FROM s4)
        """,
        "orders_triangle_count": """
            WITH m AS (SELECT MAX(c_custkey) AS m FROM customer),
            raw AS (
                SELECT o_custkey AS u,
                       1 + ((o_orderkey * 2654435761) %
                            (SELECT m FROM m)) AS v
                FROM orders
            ),
            e0 AS (
                SELECT DISTINCT LEAST(u, v) AS a, GREATEST(u, v) AS b
                FROM raw WHERE u <> v
            )
            SELECT (SELECT COUNT(*) FROM e0 x
                    JOIN e0 y ON y.a = x.a AND y.b > x.b
                    JOIN e0 z ON z.a = x.b AND z.b = y.b
                   ) AS n_triangles,
                   (SELECT COUNT(*) FROM e0) AS n_edges
        """,
        "docs_pack_chunks": """
            SELECT doc_id, source,
                   CAST(COALESCE(prev, 0) // 4096 AS BIGINT)
                       AS start_chunk,
                   CAST(COALESCE(prev, 0) % 4096 AS BIGINT)
                       AS start_offset,
                   CAST((COALESCE(prev, 0) + n_chars - 1) // 4096
                        AS BIGINT) AS end_chunk
            FROM (
                SELECT doc_id, source, n_chars,
                       SUM(n_chars) OVER (
                           PARTITION BY source ORDER BY doc_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING) AS prev
                FROM documents)
        """,
        "docs_similar_prefixes": """
            WITH d AS (SELECT DISTINCT substr(text, 1, 12) AS s
                       FROM documents)
            SELECT a.s AS s_a, b.s AS s_b,
                   CAST(levenshtein(a.s, b.s) AS BIGINT) AS dist
            FROM d a JOIN d b ON a.s < b.s
            WHERE abs(len(a.s) - len(b.s)) <= 2
              AND levenshtein(a.s, b.s) <= 2
        """,
        "orders_global_rank": """
            SELECT o_orderkey,
                   CAST(round(o_totalprice * 100) AS BIGINT)
                       AS total_cents,
                   CAST(ROW_NUMBER() OVER (
                       ORDER BY round(o_totalprice * 100) DESC,
                                o_orderkey) AS BIGINT) AS rank
            FROM orders
        """,
        "orders_upsert": """
            WITH base AS (
                SELECT o_orderkey,
                       CAST(round(o_totalprice * 100) AS BIGINT)
                           AS price_cents,
                       CAST(0 AS BIGINT) AS version, 0 AS side
                FROM orders
            ),
            upd AS (
                SELECT o_orderkey,
                       CAST(round(o_totalprice * 100) AS BIGINT)
                           + 100000,
                       CAST(1 AS BIGINT), 1
                FROM orders WHERE o_orderkey % 10 = 3
                UNION ALL
                SELECT o_orderkey,
                       CAST(round(o_totalprice * 100) AS BIGINT) + 1,
                       CAST(0 AS BIGINT), 1
                FROM orders WHERE o_orderkey % 10 = 7
            ),
            u AS (SELECT * FROM base UNION ALL SELECT * FROM upd)
            SELECT o_orderkey, price_cents, version FROM u
            QUALIFY row_number() OVER (
                PARTITION BY o_orderkey
                ORDER BY version DESC, side DESC) = 1
        """,
        "lineitem_price_winsorized": """
            WITH x AS (
                SELECT l_returnflag,
                       CAST(round(l_extendedprice * 100) AS BIGINT)
                           AS v
                FROM lineitem
            ),
            q AS (SELECT quantile_disc(v, 0.05) AS lo,
                         quantile_disc(v, 0.95) AS hi FROM x)
            SELECT l_returnflag,
                   CAST(SUM(LEAST(GREATEST(v, lo), hi)) AS BIGINT)
                       AS sum_wins_cents,
                   CAST(SUM(CASE WHEN v < lo THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_clip_lo,
                   CAST(SUM(CASE WHEN v > hi THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_clip_hi
            FROM x, q GROUP BY l_returnflag
        """,
        "lineitem_price_outliers": """
            WITH x AS (
                SELECT l_orderkey, l_linenumber,
                       CAST(round(l_extendedprice * 100) AS BIGINT)
                           AS price_cents
                FROM lineitem
            ),
            st AS (
                SELECT COUNT(*) AS n, SUM(price_cents) AS s,
                       SUM(price_cents * price_cents) AS q
                FROM x
            )
            SELECT l_orderkey, l_linenumber, price_cents
            FROM x, st
            WHERE (10 * abs(CAST(n AS HUGEINT) * price_cents - s))
                  * (10 * abs(CAST(n AS HUGEINT) * price_cents - s))
                  > 289 * (CAST(n AS HUGEINT) * q
                           - CAST(s AS HUGEINT) * s)
        """,
        "docs_decontaminate": """
            WITH tok AS (SELECT doc_id, string_split(text, ' ') AS w
                         FROM documents),
            pos AS (SELECT doc_id, w,
                           unnest(generate_series(1,
                               greatest(len(w) - 4, 0))) AS i
                    FROM tok),
            sh AS (SELECT DISTINCT doc_id,
                          array_to_string(w[i:i+4], ' ') AS s
                   FROM pos),
            es AS (SELECT DISTINCT s FROM sh WHERE doc_id % 50 = 0)
            SELECT d.doc_id, COUNT(*) AS n_hits
            FROM sh d JOIN es USING (s)
            WHERE d.doc_id % 50 <> 0
            GROUP BY d.doc_id
        """,
        "embeddings_covariance": """
            WITH v AS (
                SELECT vec_id, generate_subscripts(embedding, 1) AS pos,
                       CAST(FLOOR(CAST(unnest(embedding) AS DOUBLE)
                                  * 1048576.0 + 0.5) AS BIGINT) AS q
                FROM embeddings
            ),
            nn AS (SELECT COUNT(*) AS n FROM embeddings),
            s AS (SELECT pos, SUM(q) AS s FROM v GROUP BY pos),
            p AS (SELECT a.pos AS i, b.pos AS j, SUM(a.q * b.q) AS p
                  FROM v a JOIN v b
                    ON a.vec_id = b.vec_id AND b.pos >= a.pos
                  GROUP BY 1, 2)
            SELECT CAST(p.i - 1 AS BIGINT) AS i,
                   CAST(p.j - 1 AS BIGINT) AS j,
                   CAST((SELECT n FROM nn) * p.p - sa.s * sb.s AS DOUBLE)
                       / (CAST((SELECT n FROM nn) AS DOUBLE)
                          * CAST((SELECT n FROM nn) AS DOUBLE))
                       / 1099511627776.0 AS cov
            FROM p JOIN s sa ON sa.pos = p.i
                   JOIN s sb ON sb.pos = p.j
        """,
        "events_hourly_distinct": """
            SELECT CAST(epoch(date_trunc('hour', ts)) AS BIGINT) // 3600
                       AS hour_id,
                   COUNT(DISTINCT user_id) AS n_users
            FROM events GROUP BY hour_id
        """,
        "events_sliding": """
            SELECT hour_id,
                   CAST(SUM(n_events) OVER w AS BIGINT) AS w_events,
                   CAST(SUM(value_cents) OVER w AS BIGINT) AS w_value_cents
            FROM (
                SELECT CAST(epoch(date_trunc('hour', ts)) AS BIGINT) // 3600 AS hour_id,
                       COUNT(*) AS n_events,
                       CAST(SUM(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS value_cents
                FROM events GROUP BY hour_id
            ) WINDOW w AS (ORDER BY hour_id RANGE BETWEEN 2 PRECEDING AND CURRENT ROW)
        """,
        "events_user_range_sum": """
            SELECT event_id,
                   CAST(SUM(CAST(round(value * 100) AS BIGINT))
                        OVER w AS BIGINT) AS rv_sum,
                   COUNT(*) OVER w AS rv_n
            FROM events
            WINDOW w AS (PARTITION BY user_id
                         ORDER BY CAST(epoch_us(ts) AS BIGINT)
                         RANGE BETWEEN 3600000000 PRECEDING
                               AND CURRENT ROW)
        """,
        "events_sessions": """
            SELECT user_id,
                   CAST(epoch_us(MIN(ts)) AS BIGINT) AS session_start_us,
                   COUNT(*) AS n_events,
                   CAST(SUM(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS value_cents
            FROM (
                SELECT *, SUM(new_sess) OVER (
                    PARTITION BY user_id ORDER BY ts, event_id
                    ROWS UNBOUNDED PRECEDING) AS sess_id
                FROM (
                    SELECT *, CASE WHEN ts - lag(ts) OVER (
                        PARTITION BY user_id ORDER BY ts, event_id
                    ) > INTERVAL 30 MINUTE
                    OR lag(ts) OVER (
                        PARTITION BY user_id ORDER BY ts, event_id
                    ) IS NULL THEN 1 ELSE 0 END AS new_sess
                    FROM events
                )
            ) GROUP BY user_id, sess_id
        """,
        "high_value_orders": """
            SELECT o_orderpriority, COUNT(*) AS n_orders,
                   CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS sum_cents
            FROM orders WHERE o_totalprice >= 400000.0
            GROUP BY o_orderpriority
        """,
        "orders_running_total": """
            SELECT o_custkey, o_orderkey,
                   CAST(round(o_totalprice * 100) AS BIGINT) AS cents,
                   CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT))
                        OVER (PARTITION BY o_custkey ORDER BY o_orderkey
                              ROWS UNBOUNDED PRECEDING) AS BIGINT)
                       AS running_cents,
                   ROW_NUMBER() OVER (PARTITION BY o_custkey
                                      ORDER BY o_orderkey) AS row_num
            FROM orders
        """,
        "events_lag_value": """
            SELECT user_id, event_id, value,
                   LAG(value) OVER (PARTITION BY user_id
                                    ORDER BY event_id) AS lag_value
            FROM events
        """,
        "lineitem_corr_by_flag": """
            WITH s AS (
                SELECT l_returnflag,
                       CAST(COUNT(*) AS HUGEINT) AS n,
                       CAST(SUM(CAST(l_quantity AS BIGINT))
                            AS HUGEINT) AS sx,
                       CAST(SUM(CAST(floor(l_extendedprice) AS BIGINT))
                            AS HUGEINT) AS sy,
                       CAST(SUM(CAST(l_quantity AS BIGINT)
                                * CAST(floor(l_extendedprice) AS BIGINT))
                            AS HUGEINT) AS sxy,
                       CAST(SUM(CAST(l_quantity AS BIGINT)
                                * CAST(l_quantity AS BIGINT))
                            AS HUGEINT) AS sxx,
                       CAST(SUM(CAST(floor(l_extendedprice) AS BIGINT)
                                * CAST(floor(l_extendedprice) AS BIGINT))
                            AS HUGEINT) AS syy
                FROM lineitem GROUP BY l_returnflag)
            SELECT l_returnflag,
                   CAST(n*sxy - sx*sy AS DOUBLE)
                   / sqrt(CAST(n*sxx - sx*sx AS DOUBLE)
                          * CAST(n*syy - sy*sy AS DOUBLE))
                       AS corr_qty_usd,
                   CAST(n*sxy - sx*sy AS DOUBLE)
                   / CAST(n*sxx - sx*sx AS DOUBLE) AS slope_qty_usd
            FROM s
        """,
        "orders_status_strings": """
            SELECT o_custkey,
                   string_agg(o_orderstatus, ','
                              ORDER BY o_orderkey, o_orderstatus)
                       AS statuses
            FROM orders GROUP BY o_custkey
        """,
        "embeddings_pos_sums": """
            SELECT pos, CAST(SUM(CAST(floor(v * 1000) AS BIGINT))
                             AS BIGINT) AS s
            FROM (SELECT generate_subscripts(embedding, 1) AS pos,
                         unnest(embedding) AS v FROM embeddings)
            GROUP BY pos
        """,
        "lineitem_qty_quantiles_by_flag": """
            SELECT l_returnflag,
                   quantile_disc(l_quantity, 0.25) AS p25,
                   quantile_disc(l_quantity, 0.5)  AS p50,
                   quantile_disc(l_quantity, 0.75) AS p75
            FROM lineitem GROUP BY l_returnflag
        """,
        "lineitem_price_cont_by_flag": """
            SELECT l_returnflag,
                   quantile_cont(l_extendedprice, 0.5)  AS c50,
                   quantile_cont(l_extendedprice, 0.95) AS c95
            FROM lineitem GROUP BY l_returnflag
        """,
        "lineitem_urgent_semi_bloom": """
            SELECT l_orderkey, l_partkey, l_quantity FROM lineitem l
            WHERE EXISTS (SELECT 1 FROM orders
                          WHERE o_orderkey = l.l_orderkey
                            AND o_orderpriority = '1-URGENT')
        """,
        "orders_first_last": """
            SELECT o_custkey, o_orderkey, o_totalprice,
                   FIRST_VALUE(o_totalprice) OVER w AS first_o_totalprice,
                   LAST_VALUE(o_totalprice) OVER w AS last_o_totalprice,
                   NTILE(4) OVER (PARTITION BY o_custkey
                                  ORDER BY o_orderkey) AS ntile4
            FROM orders
            WINDOW w AS (PARTITION BY o_custkey ORDER BY o_orderkey
                         ROWS BETWEEN UNBOUNDED PRECEDING
                              AND UNBOUNDED FOLLOWING)
        """,
        "customer_orders_full": """
            SELECT COALESCE(c.c_custkey, o.o_custkey) AS c_custkey,
                   c.c_name, o.o_orderkey, o.o_totalprice
            FROM (SELECT c_custkey, c_name FROM customer
                  WHERE c_acctbal < 0.0) c
            FULL JOIN (SELECT o_custkey, o_orderkey, o_totalprice
                       FROM orders WHERE o_totalprice > 400000.0) o
              ON c.c_custkey = o.o_custkey
        """,
        "suppliers_with_shipments": """
            SELECT s_suppkey, s_name FROM supplier s
            WHERE EXISTS (SELECT 1 FROM lineitem
                          WHERE l_suppkey = s.s_suppkey
                            AND l_quantity >= 50.0
                            AND l_returnflag = 'R')
        """,
        "parts_never_shipped": """
            SELECT p_partkey, p_name, p_brand FROM part p
            WHERE NOT EXISTS (SELECT 1 FROM lineitem
                              WHERE l_partkey = p.p_partkey
                                AND l_quantity >= 46.0)
        """,
        "lineitem_moving_qty": """
            WITH t AS (
                SELECT l_partkey,
                       (l_orderkey * 8 + l_linenumber) * 1000000000000
                         + CAST(l_quantity AS BIGINT) * 100000000
                         + CAST(round(l_extendedprice * 100) AS BIGINT)
                           AS seq,
                       CAST(l_quantity AS BIGINT) AS qty
                FROM lineitem)
            SELECT l_partkey, seq, qty,
                   CAST(SUM(qty) OVER w AS BIGINT) AS mv_sum,
                   COUNT(*) OVER w AS mv_n
            FROM t
            WINDOW w AS (PARTITION BY l_partkey ORDER BY seq
                         ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)
        """,
        "orders_rank_by_date": """
            SELECT o_custkey, o_orderkey,
                   RANK() OVER w AS rnk, DENSE_RANK() OVER w AS drnk
            FROM orders
            WINDOW w AS (PARTITION BY o_custkey ORDER BY o_orderdate)
        """,
        "lineitem_stratified_sample": """
            WITH t AS (
                SELECT l_partkey,
                       (l_orderkey * 8 + l_linenumber) * 1000000000000
                         + CAST(l_quantity AS BIGINT) * 100000000
                         + CAST(round(l_extendedprice * 100) AS BIGINT)
                           AS seq
                FROM lineitem),
            hs AS (
                SELECT l_partkey, seq,
                       CAST((CAST(seq % 4294967296 AS HUGEINT) * 2654435761
                             + (seq // 4294967296) * 40503)
                            % 4294967296 AS BIGINT) AS h1
                FROM t),
            h2 AS (SELECT l_partkey, seq, xor(h1, h1 // 65536) AS v
                   FROM hs),
            h3 AS (SELECT l_partkey, seq,
                          CAST((CAST(v AS HUGEINT) * 2246822519)
                               % 4294967296 AS BIGINT) AS v
                   FROM h2),
            hf AS (SELECT l_partkey, seq, xor(v, v // 8192) AS h
                   FROM h3)
            SELECT l_partkey, seq FROM hf
            QUALIFY ROW_NUMBER() OVER (PARTITION BY l_partkey
                                       ORDER BY h, seq) <= 3
        """,
        "orders_priority_intersect": """
            SELECT o_custkey, o_orderstatus FROM orders
            WHERE o_orderpriority = '1-URGENT'
            INTERSECT
            SELECT o_custkey, o_orderstatus FROM orders
            WHERE o_orderpriority = '2-HIGH'
        """,
        "orders_priority_except": """
            SELECT o_custkey, o_orderstatus FROM orders
            WHERE o_orderpriority = '1-URGENT'
            EXCEPT
            SELECT o_custkey, o_orderstatus FROM orders
            WHERE o_orderpriority = '2-HIGH'
        """,
        "lineitem_flag_intersect_all": """
            SELECT l_suppkey, l_linestatus FROM lineitem
            WHERE l_returnflag = 'R'
            INTERSECT ALL
            SELECT l_suppkey, l_linestatus FROM lineitem
            WHERE l_returnflag = 'A'
        """,
        "lineitem_flag_except_all": """
            SELECT l_suppkey, l_linestatus FROM lineitem
            WHERE l_returnflag = 'R'
            EXCEPT ALL
            SELECT l_suppkey, l_linestatus FROM lineitem
            WHERE l_returnflag = 'A'
        """,
        "lineitem_rollup": """
            SELECT l_returnflag, l_linestatus,
                   CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT)
                       AS sum_qty,
                   COUNT(*) AS n_rows
            FROM lineitem
            GROUP BY ROLLUP(l_returnflag, l_linestatus)
        """,
        "lineitem_cube": """
            SELECT l_returnflag, l_linestatus,
                   CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT)
                       AS sum_qty,
                   COUNT(*) AS n_rows
            FROM lineitem
            GROUP BY CUBE(l_returnflag, l_linestatus)
        """,
        "orders_grouping_sets": """
            SELECT o_orderstatus, o_orderpriority,
                   CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT))
                        AS BIGINT) AS sum_price_cents,
                   COUNT(*) AS n_orders
            FROM orders
            GROUP BY GROUPING SETS ((o_orderstatus, o_orderpriority),
                                    (o_orderstatus), (o_orderpriority))
        """,
        "orders_pivot_status": """
            SELECT o_orderpriority,
                   CAST(COALESCE(SUM(CASE WHEN o_orderstatus = 'F'
                       THEN CAST(round(o_totalprice * 100) AS BIGINT)
                       END), 0) AS BIGINT) AS cents_F,
                   COUNT(CASE WHEN o_orderstatus = 'F' THEN 1 END)
                       AS cents_F_n,
                   CAST(COALESCE(SUM(CASE WHEN o_orderstatus = 'O'
                       THEN CAST(round(o_totalprice * 100) AS BIGINT)
                       END), 0) AS BIGINT) AS cents_O,
                   COUNT(CASE WHEN o_orderstatus = 'O' THEN 1 END)
                       AS cents_O_n,
                   CAST(COALESCE(SUM(CASE WHEN o_orderstatus = 'P'
                       THEN CAST(round(o_totalprice * 100) AS BIGINT)
                       END), 0) AS BIGINT) AS cents_P,
                   COUNT(CASE WHEN o_orderstatus = 'P' THEN 1 END)
                       AS cents_P_n
            FROM orders GROUP BY o_orderpriority
        """,
        "customers_zorder_cells": f"""
            WITH pt AS (SELECT {_LON} AS lon, {_LAT} AS lat FROM customer),
            g AS (SELECT {_quant('lon', -180.0, 360.0, 8)} AS qx,
                         {_quant('lat', -90.0, 180.0, 8)} AS qy FROM pt),
            z AS (SELECT {_spread16('qx')}
                         | ({_spread16('qy')} << 1) AS zkey FROM g)
            SELECT zkey, COUNT(*) AS n FROM z GROUP BY zkey
        """,
        "events_runs_test": """
            WITH v AS (SELECT event_type, ts, event_id,
                              CAST(round(value * 100) AS BIGINT) AS c
                       FROM events),
            med AS (SELECT event_type,
                           CAST(quantile_disc(c, 0.5) AS BIGINT) AS m
                    FROM v GROUP BY event_type),
            s AS (SELECT v.event_type, ts, event_id,
                         CASE WHEN c > m THEN 1 ELSE 0 END AS sg
                  FROM v JOIN med USING (event_type)),
            r AS (SELECT event_type, sg,
                         LAG(sg) OVER (PARTITION BY event_type
                             ORDER BY ts, event_id) AS pg
                  FROM s)
            SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(SUM(sg) AS BIGINT) AS n_above,
                   CAST(COUNT(*) - SUM(sg) AS BIGINT) AS n_below,
                   CAST(1 + SUM(CASE WHEN pg IS NOT NULL
                                      AND sg <> pg THEN 1 ELSE 0
                                END) AS BIGINT) AS n_runs
            FROM r GROUP BY event_type ORDER BY event_type
        """,
        "docs_containment_pairs": """
            WITH tok AS (SELECT doc_id,
                                regexp_split_to_array(text, '\\s+')
                                    AS w
                         FROM documents),
            pos AS (SELECT doc_id, w,
                        unnest(generate_series(1,
                            greatest(len(w) - 2, 0))) AS i
                    FROM tok),
            gr AS (SELECT doc_id, i,
                          w[i] || ' ' || w[i+1] || ' ' || w[i+2]
                              AS gram
                   FROM pos
                   WHERE w[i] <> '' AND w[i+1] <> ''
                     AND w[i+2] <> ''),
            sel AS (SELECT doc_id, gram,
                        MIN(gram) OVER (PARTITION BY doc_id
                            ORDER BY i ROWS BETWEEN 3 PRECEDING
                            AND 3 FOLLOWING) AS wmin
                    FROM gr),
            fp AS (SELECT DISTINCT doc_id, gram FROM sel
                   WHERE gram = wmin),
            tot AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n
                    FROM fp GROUP BY doc_id),
            rare AS (SELECT gram FROM fp GROUP BY gram
                     HAVING COUNT(*) <= 8),
            pr AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                          CAST(COUNT(*) AS BIGINT) AS n_shared
                   FROM fp a
                   JOIN rare USING (gram)
                   JOIN fp b USING (gram)
                   WHERE a.doc_id < b.doc_id
                   GROUP BY 1, 2 HAVING COUNT(*) >= 3)
            SELECT pr.doc_a, pr.doc_b, pr.n_shared,
                   ta.n AS n_a, tb.n AS n_b
            FROM pr JOIN tot ta ON ta.doc_id = pr.doc_a
                    JOIN tot tb ON tb.doc_id = pr.doc_b
            ORDER BY pr.doc_a, pr.doc_b
        """,
        "suppliers_graph_diameter": """
            WITH RECURSIVE e AS (
              SELECT s_suppkey AS a, s_suppkey - (s_suppkey % 7) AS b
              FROM supplier
              UNION ALL
              SELECT s_suppkey - (s_suppkey % 7), s_suppkey FROM supplier
              UNION ALL
              SELECT s_suppkey, s_suppkey - 1 FROM supplier
              WHERE s_suppkey % 10 = 0
              UNION ALL
              SELECT s_suppkey - 1, s_suppkey FROM supplier
              WHERE s_suppkey % 10 = 0
            ),
            walk(src, node, d) AS (
              SELECT s_suppkey, s_suppkey, 0 FROM supplier
              UNION
              SELECT walk.src, e.b, walk.d + 1
              FROM walk JOIN e ON e.a = walk.node
              WHERE walk.d < 64
            ),
            md AS (SELECT src, node, MIN(d) AS d
                   FROM walk GROUP BY src, node),
            ec AS (SELECT src, MAX(d) AS ecc, MIN(node) AS comp
                   FROM md GROUP BY src),
            ctr AS (SELECT comp, src AS center,
                           ROW_NUMBER() OVER (PARTITION BY comp
                               ORDER BY ecc, src) AS rk
                    FROM ec)
            SELECT ec.comp,
                   CAST(COUNT(*) AS BIGINT) AS n_nodes,
                   CAST(MAX(ecc) AS BIGINT) AS diameter,
                   CAST(MIN(ecc) AS BIGINT) AS radius,
                   CAST(MIN(ctr.center) AS BIGINT) AS center
            FROM ec JOIN ctr ON ctr.comp = ec.comp AND ctr.rk = 1
            GROUP BY ec.comp ORDER BY ec.comp
        """,
        "customers_ransac_line": """
            WITH ks AS (SELECT c_custkey AS k,
                               CAST(ROW_NUMBER() OVER (
                                   ORDER BY c_custkey) - 1 AS BIGINT)
                                   AS rn
                        FROM customer),
            st AS (SELECT CAST(ceil(COUNT(*) / 32.0) AS BIGINT)
                       AS step FROM customer),
            samp AS (SELECT k, CAST(ROW_NUMBER() OVER (ORDER BY k)
                                    - 1 AS BIGINT) AS si
                     FROM ks, st WHERE rn % step = 0
                     QUALIFY ROW_NUMBER() OVER (ORDER BY k) <= 32),
            pts AS (SELECT c_custkey AS k,
                      CASE WHEN c_custkey % 17 = 0
                           THEN -15000 + (c_custkey % 300) * 100
                           ELSE (c_custkey * 7919) % 36000 - 18000
                      END AS x,
                      CASE WHEN c_custkey % 17 = 0
                           THEN -7000 + (c_custkey % 300) * 40
                           ELSE (c_custkey * 104729) % 17000 - 8500
                      END AS y
                    FROM customer),
            sp AS (SELECT samp.si, samp.k, pts.x, pts.y
                   FROM samp JOIN pts ON pts.k = samp.k),
            hyp AS (SELECT a.si AS ai, b.si AS bi,
                           a.k AS ik, b.k AS jk,
                           a.x AS x0, a.y AS y0,
                           b.x - a.x AS dx, b.y - a.y AS dy
                    FROM sp a JOIN sp b ON a.si < b.si),
            cnt AS (SELECT ai, bi, ik, jk,
                       CAST(SUM(CASE WHEN
                           (dx*(p.y - y0) - dy*(p.x - x0))
                           * (dx*(p.y - y0) - dy*(p.x - x0))
                           <= 2500 * (dx*dx + dy*dy)
                           THEN 1 ELSE 0 END) AS BIGINT) AS n_in,
                       CAST(COUNT(*) AS BIGINT) AS n_points
                    FROM hyp CROSS JOIN pts p
                    GROUP BY ai, bi, ik, jk)
            SELECT ik AS i_key, jk AS j_key, n_in AS n_inliers,
                   n_points
            FROM cnt
            QUALIFY ROW_NUMBER() OVER (
                ORDER BY n_in DESC, ai, bi) = 1
        """,
        "suppliers_rank_tau": """
            WITH rev AS (
              SELECT l_suppkey AS k,
                     CAST(SUM(CAST(round(l_extendedprice * 100)
                         AS BIGINT)) AS BIGINT) AS r
              FROM lineitem GROUP BY l_suppkey),
            v AS (SELECT s_suppkey AS k,
                         CAST(round(s_acctbal * 100) AS BIGINT) AS a,
                         COALESCE(rev.r, 0) AS b
                  FROM supplier LEFT JOIN rev
                    ON rev.k = supplier.s_suppkey),
            pairs AS (
              SELECT sign(x.a - y.a) AS da, sign(x.b - y.b) AS db
              FROM v x JOIN v y ON x.k < y.k)
            SELECT CAST((SELECT COUNT(*) FROM v) AS BIGINT) AS n,
                   CAST(SUM(CASE WHEN da * db = 1 THEN 1 ELSE 0 END)
                        AS BIGINT) AS concordant,
                   CAST(SUM(CASE WHEN da * db = -1 THEN 1 ELSE 0 END)
                        AS BIGINT) AS discordant,
                   CAST(SUM(CASE WHEN da = 0 AND db <> 0
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS tie_a,
                   CAST(SUM(CASE WHEN db = 0 AND da <> 0
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS tie_b,
                   CAST(SUM(CASE WHEN da = 0 AND db = 0
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS tie_both
            FROM pairs
        """,
        "suppliers_edge_support": """
            WITH raw AS (
              SELECT s_suppkey AS a, s_suppkey - (s_suppkey % 7) AS b
              FROM supplier
              UNION ALL
              SELECT s_suppkey - (s_suppkey % 7), s_suppkey
              FROM supplier
              UNION ALL
              SELECT s_suppkey, s_suppkey - 1 FROM supplier
              WHERE s_suppkey % 10 = 0
              UNION ALL
              SELECT s_suppkey - 1, s_suppkey FROM supplier
              WHERE s_suppkey % 10 = 0),
            sym AS (SELECT DISTINCT a, b FROM (
                      SELECT a, b FROM raw UNION ALL
                      SELECT b, a FROM raw)
                    WHERE a <> b),
            canon AS (SELECT DISTINCT LEAST(a, b) AS a,
                             GREATEST(a, b) AS b FROM sym),
            sup AS (SELECT c.a, c.b,
                           CAST(COUNT(DISTINCT na.b) AS BIGINT) AS s
                    FROM canon c
                    JOIN sym na ON na.a = c.a
                    JOIN sym nb ON nb.a = c.b AND nb.b = na.b
                    GROUP BY c.a, c.b)
            SELECT c.a AS src, c.b AS dst,
                   CAST(COALESCE(sup.s, 0) AS BIGINT) AS support
            FROM canon c LEFT JOIN sup ON sup.a = c.a AND sup.b = c.b
            ORDER BY src, dst
        """,
        "docs_minimizer_overlap": """
            WITH tok AS (SELECT doc_id,
                                regexp_split_to_array(text, '\\s+')
                                    AS w
                         FROM documents),
            pos AS (SELECT doc_id, w,
                        unnest(generate_series(1,
                            greatest(len(w) - 2, 0))) AS i
                    FROM tok),
            gr AS (SELECT doc_id, i,
                          w[i] || ' ' || w[i+1] || ' ' || w[i+2]
                              AS gram
                   FROM pos
                   WHERE w[i] <> '' AND w[i+1] <> ''
                     AND w[i+2] <> ''),
            sel AS (SELECT doc_id, gram,
                        MIN(gram) OVER (PARTITION BY doc_id
                            ORDER BY i ROWS BETWEEN 3 PRECEDING
                            AND 3 FOLLOWING) AS wmin
                    FROM gr),
            fp AS (SELECT DISTINCT doc_id, gram FROM sel
                   WHERE gram = wmin),
            rare AS (SELECT gram FROM fp GROUP BY gram
                     HAVING COUNT(*) <= 8),
            pr AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                          CAST(COUNT(*) AS BIGINT) AS n_shared
                   FROM fp a
                   JOIN rare USING (gram)
                   JOIN fp b USING (gram)
                   WHERE a.doc_id < b.doc_id
                   GROUP BY 1, 2 HAVING COUNT(*) >= 3)
            SELECT doc_a, doc_b, n_shared FROM pr
            ORDER BY doc_a, doc_b
        """,
        "customers_morans_i": f"""
            WITH pt AS (SELECT {_LON} AS lon, {_LAT} AS lat
                        FROM customer),
            qq AS (SELECT {_quant('lon', -180.0, 360.0, 6)} AS qx,
                          {_quant('lat', -90.0, 180.0, 6)} AS qy
                   FROM pt),
            cnt AS (SELECT qx, qy, CAST(COUNT(*) AS BIGINT) AS n
                    FROM qq GROUP BY qx, qy),
            grid AS (SELECT i.range AS gx, j.range AS gy,
                            COALESCE(cnt.n, 0) AS x
                     FROM range(0, 64) i CROSS JOIN range(0, 64) j
                     LEFT JOIN cnt ON cnt.qx = i.range
                         AND cnt.qy = j.range),
            tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS nn,
                           CAST(SUM(x) AS BIGINT) AS s FROM grid),
            z AS (SELECT gx, gy, nn * x - s AS z FROM grid, tot)
            SELECT (SELECT nn FROM tot) AS n_cells,
                   CAST(16128 AS BIGINT) AS sum_w,
                   CAST((SELECT SUM(z1.z * z2.z) FROM z z1 JOIN z z2
                         ON abs(z1.gx - z2.gx) + abs(z1.gy - z2.gy)
                            = 1) AS BIGINT) AS moran_num,
                   CAST((SELECT SUM(z * z) FROM z) AS BIGINT)
                       AS moran_den
        """,
        "lineitem_stats_collection": """
            WITH src AS (
              SELECT 'l_quantity' AS col,
                     CAST(l_quantity AS BIGINT) AS v FROM lineitem
              UNION ALL
              SELECT 'price_cents',
                     CAST(round(l_extendedprice * 100) AS BIGINT)
              FROM lineitem),
            agg AS (
              SELECT col, 'n' AS stat, 0 AS slot,
                     COUNT(*) AS value FROM src GROUP BY col
              UNION ALL
              SELECT col, 'ndv', 0, COUNT(DISTINCT v)
              FROM src GROUP BY col
              UNION ALL
              SELECT col, 'min', 0, MIN(v) FROM src GROUP BY col
              UNION ALL
              SELECT col, 'max', 0, MAX(v) FROM src GROUP BY col
              UNION ALL
              SELECT col, 'sum', 0, SUM(v) FROM src GROUP BY col),
            cnts AS (SELECT col, v, COUNT(*) AS c
                     FROM src GROUP BY col, v),
            mcv AS (SELECT col, v, c,
                           CAST(ROW_NUMBER() OVER (PARTITION BY col
                               ORDER BY c DESC, v) - 1 AS BIGINT) AS r
                    FROM cnts QUALIFY r < 5),
            mrows AS (
              SELECT col, 'mcv_value' AS stat, r AS slot, v AS value
              FROM mcv
              UNION ALL
              SELECT col, 'mcv_count', r, c FROM mcv),
            edh AS (
              SELECT col, 'edh_bound' AS stat, 1 AS slot,
                     quantile_disc(v, 0.125) AS value
              FROM src GROUP BY col
              UNION ALL SELECT col, 'edh_bound', 2,
                  quantile_disc(v, 0.25) FROM src GROUP BY col
              UNION ALL SELECT col, 'edh_bound', 3,
                  quantile_disc(v, 0.375) FROM src GROUP BY col
              UNION ALL SELECT col, 'edh_bound', 4,
                  quantile_disc(v, 0.5) FROM src GROUP BY col
              UNION ALL SELECT col, 'edh_bound', 5,
                  quantile_disc(v, 0.625) FROM src GROUP BY col
              UNION ALL SELECT col, 'edh_bound', 6,
                  quantile_disc(v, 0.75) FROM src GROUP BY col
              UNION ALL SELECT col, 'edh_bound', 7,
                  quantile_disc(v, 0.875) FROM src GROUP BY col)
            SELECT col, stat, CAST(slot AS BIGINT) AS slot,
                   CAST(value AS BIGINT) AS value
            FROM (SELECT * FROM agg UNION ALL
                  SELECT * FROM mrows UNION ALL
                  SELECT * FROM edh)
            ORDER BY col, stat, slot
        """,
        "orders_allen_relations": """
            WITH iv AS (
              SELECT o_custkey,
                     CAST(floor(epoch(o_orderdate) / 86400) AS BIGINT)
                         AS s,
                     CAST(floor(epoch(o_orderdate) / 86400) AS BIGINT)
                         + o_orderkey % 20 + 1 AS e,
                     o_orderkey
              FROM orders),
            nx AS (
              SELECT s AS s1, e AS e1,
                     LEAD(s) OVER w AS s2, LEAD(e) OVER w AS e2
              FROM iv
              WINDOW w AS (PARTITION BY o_custkey
                           ORDER BY s, e, o_orderkey)),
            rel AS (
              SELECT CASE
                       WHEN e1 < s2 THEN 'precedes'
                       WHEN e1 = s2 THEN 'meets'
                       WHEN s1 < s2 AND s2 < e1 AND e1 < e2
                           THEN 'overlaps'
                       WHEN s1 < s2 AND e1 = e2 THEN 'finished_by'
                       WHEN s1 < s2 AND e2 < e1 THEN 'contains'
                       WHEN s1 = s2 AND e1 < e2 THEN 'starts'
                       WHEN s1 = s2 AND e1 = e2 THEN 'equals'
                       ELSE 'started_by'
                     END AS relation
              FROM nx WHERE s2 IS NOT NULL)
            SELECT relation, CAST(COUNT(*) AS BIGINT) AS n
            FROM rel GROUP BY relation ORDER BY relation
        """,
        "customers_hilbert_cells": f"""
            WITH RECURSIVE
            pt AS (SELECT {_LON} AS lon, {_LAT} AS lat FROM customer),
            g AS (SELECT CAST(ROW_NUMBER() OVER () AS BIGINT) AS k,
                         {_quant('lon', -180.0, 360.0, 8)} AS qx,
                         {_quant('lat', -90.0, 180.0, 8)} AS qy
                  FROM pt),
            hs(k, s, x, y, d) AS (
              SELECT k, CAST(128 AS BIGINT), qx, qy,
                     CAST(0 AS BIGINT) FROM g
              UNION ALL
              SELECT k, s // 2,
                     CASE WHEN (y & s) = 0
                          THEN (CASE WHEN (x & s) > 0
                                     THEN 255 - y ELSE y END)
                          ELSE x END,
                     CASE WHEN (y & s) = 0
                          THEN (CASE WHEN (x & s) > 0
                                     THEN 255 - x ELSE x END)
                          ELSE y END,
                     d + s * s * (CASE WHEN (x & s) = 0
                          THEN (CASE WHEN (y & s) > 0
                                     THEN 1 ELSE 0 END)
                          ELSE (CASE WHEN (y & s) > 0
                                     THEN 2 ELSE 3 END) END)
              FROM hs WHERE s > 0)
            SELECT d AS hkey, COUNT(*) AS n
            FROM hs WHERE s = 0 GROUP BY d ORDER BY hkey
        """,
        "customers_geohash_counts": f"""
            WITH pt AS (SELECT {_LON} AS lon, {_LAT} AS lat FROM customer),
            g AS (SELECT {_quant('lon', -180.0, 360.0, 10)} AS qx,
                         {_quant('lat', -90.0, 180.0, 10)} AS qy FROM pt),
            z AS (SELECT ({_spread16('qx')} << 1)
                         | {_spread16('qy')} AS code FROM g),
            h AS (SELECT
                substr('0123456789bcdefghjkmnpqrstuvwxyz',
                       CAST((code >> 15) & 31 AS INT) + 1, 1) ||
                substr('0123456789bcdefghjkmnpqrstuvwxyz',
                       CAST((code >> 10) & 31 AS INT) + 1, 1) ||
                substr('0123456789bcdefghjkmnpqrstuvwxyz',
                       CAST((code >> 5) & 31 AS INT) + 1, 1) ||
                substr('0123456789bcdefghjkmnpqrstuvwxyz',
                       CAST(code & 31 AS INT) + 1, 1) AS geohash FROM z)
            SELECT geohash, COUNT(*) AS n FROM h GROUP BY geohash
        """,
        "lineitem_mode_qty": """
            SELECT l_returnflag, mode, mode_n FROM (
                SELECT l_returnflag, q AS mode, COUNT(*) AS mode_n,
                       ROW_NUMBER() OVER (PARTITION BY l_returnflag
                           ORDER BY COUNT(*) DESC, q ASC) AS rn
                FROM (SELECT l_returnflag,
                             CAST(round(l_quantity) AS BIGINT) AS q
                      FROM lineitem)
                GROUP BY l_returnflag, q) t
            WHERE rn = 1
        """,
        "orders_skyline": """
            WITH t AS (
                SELECT o_orderkey,
                       CAST(round(o_totalprice * 100) AS BIGINT) AS cents,
                       CAST(datediff('day', DATE '1970-01-01',
                            CAST(o_orderdate AS DATE)) AS BIGINT) AS days
                FROM orders)
            SELECT p.o_orderkey, p.cents, p.days
            FROM t p
            WHERE NOT EXISTS (
                SELECT 1 FROM t q
                WHERE q.cents >= p.cents AND q.days <= p.days
                  AND (q.cents > p.cents OR q.days < p.days))
        """,
        "lineitem_qty_moments": """
            SELECT l_returnflag,
                   COUNT(*) AS n,
                   CAST(SUM(q) AS BIGINT) AS sum_v,
                   CAST(SUM(q * q) AS BIGINT) AS sumsq_v,
                   CAST(MIN(q) AS BIGINT) AS min_v,
                   CAST(MAX(q) AS BIGINT) AS max_v,
                   CAST(COUNT(*) * SUM(q * q) - SUM(q) * SUM(q) AS BIGINT)
                       AS var_num
            FROM (SELECT l_returnflag,
                         CAST(round(l_quantity) AS BIGINT) AS q
                  FROM lineitem)
            GROUP BY l_returnflag
        """,
        "lineitem_unpivot_sums": """
            WITH long AS (
                SELECT l_returnflag, 'qty' AS measure,
                       CAST(round(l_quantity) AS BIGINT) AS value
                FROM lineitem
                UNION ALL
                SELECT l_returnflag, 'cents',
                       CAST(round(l_extendedprice * 100) AS BIGINT)
                FROM lineitem
                UNION ALL
                SELECT l_returnflag, 'disc_bp',
                       CAST(round(l_discount * 10000) AS BIGINT)
                FROM lineitem)
            SELECT l_returnflag, measure,
                   CAST(SUM(value) AS BIGINT) AS sum_value,
                   COUNT(*) AS n_rows
            FROM long GROUP BY l_returnflag, measure
        """,
        "orders_priority_hull": """
            WITH t AS (
                SELECT o_orderpriority AS grp,
                       ROW_NUMBER() OVER (PARTITION BY o_orderpriority
                                          ORDER BY o_orderkey) AS rn,
                       COUNT(*) OVER (PARTITION BY o_orderpriority)
                           AS cnt
                FROM orders)
            SELECT grp, CAST(rn AS DOUBLE) AS x,
                   CAST(rn * rn AS DOUBLE) AS y
            FROM t
            WHERE rn % 7 = 0 AND rn <= 7 * (cnt // 7)
              AND 7 * (cnt // 7) >= 21
        """,
        "events_distinct_users": """
            SELECT CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users FROM events
        """,
        "lineitem_price_band_join": """
            WITH bands AS (
                SELECT s_suppkey AS band_id,
                       (s_suppkey * 9973) % 9000000 AS lo_cents,
                       (s_suppkey * 9973) % 9000000
                         + 50000 + (s_suppkey % 13) * 10000 AS hi_cents
                FROM supplier)
            SELECT band_id,
                   COUNT(*) AS n_items,
                   CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT))
                        AS BIGINT) AS sum_cents
            FROM lineitem JOIN bands
              ON CAST(round(l_extendedprice * 100) AS BIGINT) >= lo_cents
             AND CAST(round(l_extendedprice * 100) AS BIGINT) < hi_cents
            GROUP BY band_id
        """,
        "events_last_order_asof": """
            SELECT event_id, user_id, o_orderkey FROM (
                SELECT e.event_id, e.user_id, o.o_orderkey,
                       row_number() OVER (
                           PARTITION BY e.event_id
                           ORDER BY o.o_orderdate DESC, o.o_orderkey DESC
                       ) AS rn
                FROM events e
                JOIN orders o ON o.o_custkey = e.user_id
                             AND o.o_orderdate <= CAST(e.ts AS DATE)
            ) WHERE rn = 1
        """,
        "orders_next_order_asof": """
            SELECT o_orderkey, o_custkey, next_orderkey FROM (
                SELECT a.o_orderkey, a.o_custkey,
                       b.o_orderkey AS next_orderkey,
                       row_number() OVER (
                           PARTITION BY a.o_orderkey
                           ORDER BY b.o_orderdate ASC, b.o_orderkey ASC
                       ) AS rn
                FROM orders a
                JOIN orders b ON b.o_custkey = a.o_custkey
                 AND (b.o_orderdate > a.o_orderdate
                      OR (b.o_orderdate = a.o_orderdate
                          AND b.o_orderkey > a.o_orderkey))
            ) WHERE rn = 1
        """,
        "segments_intersect_pairs": """
            WITH a AS (
              SELECT c_custkey AS custkey,
                     (c_custkey * 2654435761) % 32768 AS ax1,
                     (c_custkey * 97003) % 32768 AS ay1,
                     (c_custkey * 2654435761) % 32768
                       + (c_custkey * 7919) % 1024 - 512 AS ax2,
                     (c_custkey * 97003) % 32768
                       + (c_custkey * 104729) % 1024 - 512 AS ay2
              FROM customer),
            b AS (
              SELECT s_suppkey,
                     (s_suppkey * 1299709) % 32768 AS bx1,
                     (s_suppkey * 15485863) % 32768 AS by1,
                     (s_suppkey * 1299709) % 32768
                       + (s_suppkey * 31) % 1024 - 512 AS bx2,
                     (s_suppkey * 15485863) % 32768
                       + (s_suppkey * 37) % 1024 - 512 AS by2
              FROM supplier),
            d AS (
              SELECT custkey, s_suppkey,
                     (bx2-bx1)*(ay1-by1) - (by2-by1)*(ax1-bx1) AS d1,
                     (bx2-bx1)*(ay2-by1) - (by2-by1)*(ax2-bx1) AS d2,
                     (ax2-ax1)*(by1-ay1) - (ay2-ay1)*(bx1-ax1) AS d3,
                     (ax2-ax1)*(by2-ay1) - (ay2-ay1)*(bx2-ax1) AS d4,
                     ax1, ay1, ax2, ay2, bx1, by1, bx2, by2
              FROM a, b)
            SELECT custkey, s_suppkey FROM d
            WHERE (((d1>0 AND d2<0) OR (d1<0 AND d2>0))
                   AND ((d3>0 AND d4<0) OR (d3<0 AND d4>0)))
               OR (d1=0 AND least(bx1,bx2)<=ax1 AND ax1<=greatest(bx1,bx2)
                        AND least(by1,by2)<=ay1 AND ay1<=greatest(by1,by2))
               OR (d2=0 AND least(bx1,bx2)<=ax2 AND ax2<=greatest(bx1,bx2)
                        AND least(by1,by2)<=ay2 AND ay2<=greatest(by1,by2))
               OR (d3=0 AND least(ax1,ax2)<=bx1 AND bx1<=greatest(ax1,ax2)
                        AND least(ay1,ay2)<=by1 AND by1<=greatest(ay1,ay2))
               OR (d4=0 AND least(ax1,ax2)<=bx2 AND bx2<=greatest(ax1,ax2)
                        AND least(ay1,ay2)<=by2 AND by2<=greatest(ay1,ay2))
        """,
        "rects_polygonize": """
            WITH RECURSIVE s AS (
              SELECT (s_suppkey*37) % 248 AS a, (s_suppkey*53) % 248 AS b,
                     s_suppkey % 3 + 1 AS sx, (s_suppkey*7) % 3 + 1 AS sy
              FROM supplier),
            p AS (
              SELECT DISTINCT a + i.range AS gx, b + j.range AS gy
              FROM s, range(0, 4) i, range(0, 4) j
              WHERE i.range <= sx AND j.range <= sy),
            n AS (SELECT gy*256 + gx AS id, gx, gy FROM p),
            adj AS (
              SELECT n1.id AS u, n2.id AS v FROM n n1 JOIN n n2
                ON (n2.gx = n1.gx + 1 AND n2.gy = n1.gy)
                OR (n2.gx = n1.gx AND n2.gy = n1.gy + 1)),
            e AS (
              SELECT u, v FROM adj
              UNION ALL SELECT v, u FROM adj
              UNION ALL SELECT id, id FROM n),
            r AS (
              SELECT u AS node, v AS reach FROM e
              UNION
              SELECT r.node, e.v FROM r JOIN e ON r.reach = e.u),
            c AS (SELECT node, MIN(reach) AS component FROM r GROUP BY node)
            SELECT component,
                   COUNT(*) AS n_pixels,
                   MIN(node % 256) AS min_gx, MIN(node // 256) AS min_gy,
                   MAX(node % 256) AS max_gx, MAX(node // 256) AS max_gy
            FROM c GROUP BY component
        """,
        "tpch_q3": """
            SELECT l_orderkey,
                   datediff('day', DATE '1970-01-01',
                            CAST(o_orderdate AS DATE)) AS o_day,
                   o_orderpriority,
                   CAST(SUM(CAST(round(l_extendedprice*100) AS BIGINT)
                        * (100 - CAST(round(l_discount*100) AS BIGINT)))
                        AS BIGINT) AS rev_c2
            FROM customer
            JOIN orders ON c_custkey = o_custkey
            JOIN lineitem ON l_orderkey = o_orderkey
            WHERE c_mktsegment = 'BUILDING'
              AND CAST(o_orderdate AS DATE) < DATE '1995-03-15'
              AND CAST(l_shipdate AS DATE) > DATE '1995-03-15'
            GROUP BY l_orderkey, o_day, o_orderpriority
            ORDER BY rev_c2 DESC, o_day, l_orderkey
            LIMIT 10
        """,
        "rects_focal_counts": """
            WITH s AS (
              SELECT (s_suppkey*37) % 248 AS a, (s_suppkey*53) % 248 AS b,
                     s_suppkey % 3 + 1 AS sx, (s_suppkey*7) % 3 + 1 AS sy
              FROM supplier),
            p AS (
              SELECT DISTINCT a + i.range AS gx, b + j.range AS gy
              FROM s, range(0, 4) i, range(0, 4) j
              WHERE i.range <= sx AND j.range <= sy)
            SELECT p1.gx, p1.gy, COUNT(*) AS focal
            FROM p p1 JOIN p p2
              ON abs(p2.gx - p1.gx) <= 1 AND abs(p2.gy - p1.gy) <= 1
            GROUP BY p1.gx, p1.gy
        """,
        "orders_interval_overlap": """
            WITH a AS (
              SELECT s_suppkey,
                     9131 + (s_suppkey*13) % 2200 AS alo,
                     9131 + (s_suppkey*13) % 2200
                       + (s_suppkey % 7) * 9 + 20 AS ahi
              FROM supplier),
            b AS (
              SELECT o_orderkey,
                     datediff('day', DATE '1970-01-01',
                              CAST(o_orderdate AS DATE)) AS blo,
                     datediff('day', DATE '1970-01-01',
                              CAST(o_orderdate AS DATE))
                       + o_orderkey % 5 AS bhi
              FROM orders)
            SELECT s_suppkey,
                   COUNT(*) AS n_overlaps,
                   CAST(SUM(o_orderkey) AS BIGINT) AS sum_okey
            FROM a JOIN b ON alo <= bhi AND blo <= ahi
            GROUP BY s_suppkey
        """,
        "parts_ring_validity": """
            WITH v AS (
              SELECT p_partkey AS pk,
                     (p_partkey % 300) + 100 AS w,
                     ((p_partkey*7) % 300) + 100 AS h,
                     p_partkey * 4096 AS ox,
                     (p_partkey % 7 = 0) AS bow
              FROM part),
            e AS (
              SELECT pk, 0 AS e, ox AS x1, 0 AS y1,
                     ox + w AS x2, 0 AS y2 FROM v
              UNION ALL
              SELECT pk, 1, ox + w, 0,
                     CASE WHEN bow THEN ox ELSE ox + w END, h FROM v
              UNION ALL
              SELECT pk, 2, CASE WHEN bow THEN ox ELSE ox + w END, h,
                     CASE WHEN bow THEN ox + w ELSE ox END, h FROM v
              UNION ALL
              SELECT pk, 3, CASE WHEN bow THEN ox + w ELSE ox END, h,
                     ox, 0 FROM v),
            d AS (
              SELECT a.pk, a.e AS ea, b.e AS eb,
                     (b.x2-b.x1)*(a.y1-b.y1) - (b.y2-b.y1)*(a.x1-b.x1) AS d1,
                     (b.x2-b.x1)*(a.y2-b.y1) - (b.y2-b.y1)*(a.x2-b.x1) AS d2,
                     (a.x2-a.x1)*(b.y1-a.y1) - (a.y2-a.y1)*(b.x1-a.x1) AS d3,
                     (a.x2-a.x1)*(b.y2-a.y1) - (a.y2-a.y1)*(b.x2-a.x1) AS d4,
                     a.x1 AS ax1, a.y1 AS ay1, a.x2 AS ax2, a.y2 AS ay2,
                     b.x1 AS bx1, b.y1 AS by1, b.x2 AS bx2, b.y2 AS by2
              FROM e a JOIN e b ON a.pk = b.pk AND a.e < b.e
               AND b.e - a.e <> 1 AND NOT (a.e = 0 AND b.e = 3))
            SELECT pk AS p_partkey,
                   CAST(COUNT(*) AS BIGINT) AS n_bad_pairs
            FROM d
            WHERE (((d1>0 AND d2<0) OR (d1<0 AND d2>0))
                   AND ((d3>0 AND d4<0) OR (d3<0 AND d4>0)))
               OR (d1=0 AND least(bx1,bx2)<=ax1 AND ax1<=greatest(bx1,bx2)
                        AND least(by1,by2)<=ay1 AND ay1<=greatest(by1,by2))
               OR (d2=0 AND least(bx1,bx2)<=ax2 AND ax2<=greatest(bx1,bx2)
                        AND least(by1,by2)<=ay2 AND ay2<=greatest(by1,by2))
               OR (d3=0 AND least(ax1,ax2)<=bx1 AND bx1<=greatest(ax1,ax2)
                        AND least(ay1,ay2)<=by1 AND by1<=greatest(ay1,ay2))
               OR (d4=0 AND least(ax1,ax2)<=bx2 AND bx2<=greatest(ax1,ax2)
                        AND least(ay1,ay2)<=by2 AND by2<=greatest(ay1,ay2))
            GROUP BY pk
        """,
        "tile_adaptive_counts": f"""
            WITH t AS (
              SELECT {_tile_x(_LON, 3)} AS x3, {_tile_y(_LAT, 3)} AS y3,
                     {_tile_x(_LON, 4)} AS x4, {_tile_y(_LAT, 4)} AS y4,
                     {_tile_x(_LON, 5)} AS x5, {_tile_y(_LAT, 5)} AS y5,
                     {_tile_x(_LON, 6)} AS x6, {_tile_y(_LAT, 6)} AS y6
              FROM customer),
            c3 AS (SELECT x3, y3, COUNT(*) AS n3 FROM t GROUP BY x3, y3),
            c4 AS (SELECT x4, y4, COUNT(*) AS n4 FROM t GROUP BY x4, y4),
            c5 AS (SELECT x5, y5, COUNT(*) AS n5 FROM t GROUP BY x5, y5),
            j AS (
              SELECT t.*, c3.n3, c4.n4, c5.n5
              FROM t JOIN c3 USING (x3, y3) JOIN c4 USING (x4, y4)
                     JOIN c5 USING (x5, y5))
            SELECT zoom, tile_x, tile_y, COUNT(*) AS n_points FROM (
              SELECT CASE WHEN n3 <= 8 THEN 3 WHEN n4 <= 8 THEN 4
                          WHEN n5 <= 8 THEN 5 ELSE 6 END AS zoom,
                     CASE WHEN n3 <= 8 THEN x3 WHEN n4 <= 8 THEN x4
                          WHEN n5 <= 8 THEN x5 ELSE x6 END AS tile_x,
                     CASE WHEN n3 <= 8 THEN y3 WHEN n4 <= 8 THEN y4
                          WHEN n5 <= 8 THEN y5 ELSE y6 END AS tile_y
              FROM j)
            GROUP BY zoom, tile_x, tile_y
        """,
        "customers_zorder_lookup": f"""
            SELECT c_custkey AS custkey FROM customer
            WHERE {_LON} BETWEEN -60.37 AND 45.25
              AND {_LAT} BETWEEN -20.11 AND 60.4
        """,
        "supplier_chains_merge": """
            WITH RECURSIVE v AS (
              SELECT s_suppkey AS sk, i.range AS i,
                     CASE WHEN i.range = 3 AND s_suppkey % 5 = 0
                          THEN (s_suppkey + 1) * 1000
                          ELSE s_suppkey * 1000 + 10 * i.range END AS vx,
                     CASE WHEN i.range = 3 AND s_suppkey % 5 = 0
                          THEN 0
                          ELSE (s_suppkey * i.range) % 7 END AS vy
              FROM supplier, range(0, 4) i),
            seg AS (
              SELECT a.sk * 4 + a.i AS sid,
                     a.vx AS x1, a.vy AS y1, b.vx AS x2, b.vy AS y2
              FROM v a JOIN v b ON a.sk = b.sk AND b.i = a.i + 1
              WHERE a.i < 3),
            pts AS (
              SELECT sid, x1 * 4294967296 + y1 AS vv FROM seg
              UNION ALL
              SELECT sid, x2 * 4294967296 + y2 FROM seg),
            e AS (SELECT p1.sid AS u, p2.sid AS w
                  FROM pts p1 JOIN pts p2 ON p1.vv = p2.vv),
            r AS (
              SELECT u AS node, w AS reach FROM e
              UNION
              SELECT r.node, e.w FROM r JOIN e ON r.reach = e.u),
            c AS (SELECT node, MIN(reach) AS component FROM r
                  GROUP BY node)
            SELECT component, COUNT(*) AS n_segments
            FROM c GROUP BY component
        """,
        "orders_hash_sample": """
            SELECT o_orderkey,
                   CAST(round(o_totalprice * 100) AS BIGINT) AS total_cents
            FROM orders
            WHERE ((o_orderkey % 1000003) * 2654435761) % 4294967296
                  < (4294967296 * 10) // 100
        """,
        "lineitem_quantiles_by_flag": """
            SELECT l_returnflag,
                   CAST(quantile_disc(CAST(round(l_extendedprice * 100) AS BIGINT), 0.5) AS BIGINT) AS p50,
                   CAST(quantile_disc(CAST(round(l_extendedprice * 100) AS BIGINT), 0.9) AS BIGINT) AS p90,
                   CAST(quantile_disc(CAST(round(l_extendedprice * 100) AS BIGINT), 0.99) AS BIGINT) AS p99
            FROM lineitem GROUP BY l_returnflag
        """,
        "lineitem_price_quantiles": """
            SELECT CAST(quantile_disc(CAST(round(l_extendedprice * 100) AS BIGINT), 0.5) AS BIGINT) AS p50,
                   CAST(quantile_disc(CAST(round(l_extendedprice * 100) AS BIGINT), 0.9) AS BIGINT) AS p90,
                   CAST(quantile_disc(CAST(round(l_extendedprice * 100) AS BIGINT), 0.99) AS BIGINT) AS p99
            FROM lineitem
        """,
        "revenue_by_region": """
            SELECT r_name,
                   CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS total_cents,
                   COUNT(*) AS n_orders
            FROM orders
            JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
            GROUP BY r_name
        """,
        "revenue_by_region_shuffle": """
            SELECT r_name,
                   CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS total_cents,
                   COUNT(*) AS n_orders
            FROM orders
            JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
            GROUP BY r_name
        """,
        "min_price_lineitems": """
            SELECT l.l_orderkey, l.l_partkey, l.l_suppkey,
                   CAST(round(l.l_extendedprice * 100) AS BIGINT) AS price_cents
            FROM lineitem l
            JOIN (
                SELECT l_partkey, l_suppkey, MIN(l_extendedprice) AS mp
                FROM lineitem GROUP BY l_partkey, l_suppkey
            ) g ON l.l_partkey = g.l_partkey AND l.l_suppkey = g.l_suppkey
            WHERE l.l_extendedprice = g.mp
        """,
        "parts_by_brand": """
            SELECT p_brand,
                   CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
                   CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_cents,
                   COUNT(*) AS n_items
            FROM lineitem JOIN part ON l_partkey = p_partkey
            GROUP BY p_brand
        """,
        "customers_with_nation": """
            SELECT c_custkey, n_name FROM customer
            JOIN nation ON c_nationkey = n_nationkey
        """,
        "customers_without_orders": """
            SELECT c_custkey, c_mktsegment FROM customer
            WHERE NOT EXISTS (
                SELECT 1 FROM orders
                WHERE o_custkey = c_custkey AND o_totalprice >= 450000.0
            )
        """,
        "top_lineitems_per_supplier": """
            SELECT l_suppkey, CAST(rnk AS INTEGER) AS rank,
                   l_orderkey, l_linenumber, cents
            FROM (
                SELECT l_suppkey, CAST(l_orderkey AS BIGINT) AS l_orderkey,
                       CAST(l_linenumber AS BIGINT) AS l_linenumber,
                       CAST(round(l_extendedprice * 100) AS BIGINT) AS cents,
                       row_number() OVER (
                           PARTITION BY l_suppkey
                           ORDER BY round(l_extendedprice * 100) DESC,
                                    l_orderkey, l_linenumber
                       ) AS rnk
                FROM lineitem
            ) WHERE rnk <= 3
        """,
        "points_bbox": f"""
            SELECT min({_LON}) AS west, min({_LAT}) AS south,
                   max({_LON}) AS east, max({_LAT}) AS north
            FROM customer
        """,
        "tile_assign": f"""
            SELECT c_custkey AS custkey, {zx} AS tile_x, {zy} AS tile_y
            FROM customer
        """,
        # pyramid rollup: parent tile = children summed (x >> k)
        "tile_rollup": f"""
            WITH base AS (
              SELECT {zx} AS x8, {zy} AS y8, COUNT(*) AS n
              FROM customer GROUP BY x8, y8
            )
            SELECT z.zoom, x8 // CAST(pow(2, 8 - z.zoom) AS BIGINT) AS tile_x,
                   y8 // CAST(pow(2, 8 - z.zoom) AS BIGINT) AS tile_y,
                   CAST(SUM(n) AS BIGINT) AS n_points
            FROM base, (SELECT UNNEST(range(0, 9)) AS zoom) z
            GROUP BY 1, 2, 3
        """,
        "tile_counts": f"""
            SELECT {zx} AS tile_x, {zy} AS tile_y, COUNT(*) AS n_points
            FROM customer GROUP BY tile_x, tile_y
        """,
        # Combine-pyramid summary: a level's tiles are the distinct
        # parent keys (x >> k, y >> k) of the base assignment; every
        # point rides into exactly one tile per level
        "customers_tile_pyramid": f"""
            WITH t AS (SELECT {_tile_x(_LON, 5)} AS x,
                              {_tile_y(_LAT, 5)} AS y
                       FROM customer),
            lv AS (
              SELECT 5 AS zoom, x, y FROM t
              UNION ALL SELECT 4, x // 2, y // 2 FROM t
              UNION ALL SELECT 3, x // 4, y // 4 FROM t)
            SELECT CAST(zoom AS BIGINT) AS zoom,
                   CAST(COUNT(DISTINCT x * 4294967296 + y) AS BIGINT)
                       AS n_tiles,
                   COUNT(*) AS n_features
            FROM lv GROUP BY zoom ORDER BY zoom
        """,
        "pip_rect_join": f"""
            SELECT c_custkey AS custkey, s_suppkey AS polygon_id
            FROM customer, supplier
            WHERE {_LON} >= (-180.0 + (s_suppkey * 37) % 300)
              AND {_LON} <= (-180.0 + (s_suppkey * 37) % 300 + 5.0 + (s_suppkey % 7) * 3.0 + 0.005)
              AND {_LAT} >= (-85.0 + (s_suppkey * 53) % 160)
              AND {_LAT} <= (-85.0 + (s_suppkey * 53) % 160 + 4.0 + (s_suppkey % 5) * 3.0 + 0.005)
        """,
        # the S2-indexed route must produce the IDENTICAL join result —
        # the cell index only prunes candidates
        "pip_rect_join_s2": f"""
            SELECT c_custkey AS custkey, s_suppkey AS polygon_id
            FROM customer, supplier
            WHERE {_LON} >= (-180.0 + (s_suppkey * 37) % 300)
              AND {_LON} <= (-180.0 + (s_suppkey * 37) % 300 + 5.0 + (s_suppkey % 7) * 3.0 + 0.005)
              AND {_LAT} >= (-85.0 + (s_suppkey * 53) % 160)
              AND {_LAT} <= (-85.0 + (s_suppkey * 53) % 160 + 4.0 + (s_suppkey % 5) * 3.0 + 0.005)
        """,
        "rects_tile_clip": """
            WITH rects AS (
              SELECT s_suppkey,
                     (-180.0 + (s_suppkey * 37) % 300) AS w,
                     (-85.0 + (s_suppkey * 53) % 160) AS s,
                     (-180.0 + (s_suppkey * 37) % 300 + 5.0 + (s_suppkey % 7) * 3.0 + 0.005) AS e,
                     (-85.0 + (s_suppkey * 53) % 160 + 4.0 + (s_suppkey % 5) * 3.0 + 0.005) AS n
              FROM supplier),
            gx AS (SELECT UNNEST(range(0, 32)) AS i),
            gy AS (SELECT UNNEST(range(0, 32)) AS j)
            SELECT s_suppkey AS polygon_id, i AS tile_x, j AS tile_y,
                   GREATEST(w, -180.0 + i * 11.25) AS cw,
                   GREATEST(s, -85.0 + j * 5.3125) AS cs,
                   LEAST(e, -180.0 + (i + 1) * 11.25) AS ce,
                   LEAST(n, -85.0 + (j + 1) * 5.3125) AS cn
            FROM rects, gx, gy
            WHERE w < -180.0 + (i + 1) * 11.25 AND e > -180.0 + i * 11.25
              AND s < -85.0 + (j + 1) * 5.3125 AND n > -85.0 + j * 5.3125
        """,
        # raster<->vector: pixel-center-in-rect on the linear 256x256
        # global pixel grid, grouped to 16x16-pixel tiles — the exact
        # semantics of spatial/raster.py rasterize_batch
        "rects_contours": """
            WITH rects AS (
              SELECT s_suppkey,
                     (-180.0 + (s_suppkey * 37) % 300) AS w,
                     (-85.0 + (s_suppkey * 53) % 160) AS s,
                     (-180.0 + (s_suppkey * 37) % 300 + 5.0 + (s_suppkey % 7) * 3.0 + 0.005) AS e,
                     (-85.0 + (s_suppkey * 53) % 160 + 4.0 + (s_suppkey % 5) * 3.0 + 0.005) AS n
              FROM supplier WHERE s_suppkey % 5 = 0),
            gi AS (SELECT UNNEST(range(0, 256)) AS i),
            gj AS (SELECT UNNEST(range(0, 256)) AS j),
            occ AS (SELECT i, j FROM gi, gj
                    WHERE EXISTS (SELECT 1 FROM rects
                      WHERE (-180.0 + (i + 0.5) * (360.0 / 256)) >= w
                        AND (-180.0 + (i + 0.5) * (360.0 / 256)) <= e
                        AND (-85.0 + (j + 0.5) * (170.0 / 256)) >= s
                        AND (-85.0 + (j + 0.5) * (170.0 / 256)) <= n)),
            cx AS (SELECT UNNEST(range(0, 255)) AS x),
            cy AS (SELECT UNNEST(range(0, 255)) AS y),
            cse AS (SELECT x, y,
                      (CASE WHEN o00.i IS NOT NULL THEN 1 ELSE 0 END
                     + CASE WHEN o10.i IS NOT NULL THEN 2 ELSE 0 END
                     + CASE WHEN o11.i IS NOT NULL THEN 4 ELSE 0 END
                     + CASE WHEN o01.i IS NOT NULL THEN 8 ELSE 0 END) AS c
                    FROM (SELECT x, y FROM cx, cy) cells
                    LEFT JOIN occ o00 ON o00.i = x AND o00.j = y
                    LEFT JOIN occ o10 ON o10.i = x + 1 AND o10.j = y
                    LEFT JOIN occ o11 ON o11.i = x + 1 AND o11.j = y + 1
                    LEFT JOIN occ o01 ON o01.i = x AND o01.j = y + 1),
            segv(c, ex0, ey0, ex1, ey1) AS (VALUES
              (1, 0, 1, 1, 0),
              (2, 1, 0, 2, 1),
              (3, 0, 1, 2, 1),
              (4, 1, 2, 2, 1),
              (5, 0, 1, 1, 0),
              (5, 1, 2, 2, 1),
              (6, 1, 0, 1, 2),
              (7, 0, 1, 1, 2),
              (8, 0, 1, 1, 2),
              (9, 1, 0, 1, 2),
              (10, 1, 0, 2, 1),
              (10, 0, 1, 1, 2),
              (11, 1, 2, 2, 1),
              (12, 0, 1, 2, 1),
              (13, 1, 0, 2, 1),
              (14, 0, 1, 1, 0))
            SELECT CAST(2 * x + ex0 AS BIGINT) AS x0,
                   CAST(2 * y + ey0 AS BIGINT) AS y0,
                   CAST(2 * x + ex1 AS BIGINT) AS x1,
                   CAST(2 * y + ey1 AS BIGINT) AS y1
            FROM cse JOIN segv USING (c)
            ORDER BY x0, y0, x1, y1
        """,
        "rects_distance_field": """
            WITH rects AS (
              SELECT s_suppkey,
                     (-180.0 + (s_suppkey * 37) % 300) AS w,
                     (-85.0 + (s_suppkey * 53) % 160) AS s,
                     (-180.0 + (s_suppkey * 37) % 300 + 5.0 + (s_suppkey % 7) * 3.0 + 0.005) AS e,
                     (-85.0 + (s_suppkey * 53) % 160 + 4.0 + (s_suppkey % 5) * 3.0 + 0.005) AS n
              FROM supplier WHERE s_suppkey % 5 = 0),
            gi AS (SELECT UNNEST(range(0, 256)) AS i),
            gj AS (SELECT UNNEST(range(0, 256)) AS j),
            occ AS (SELECT i, j FROM gi, gj
                    WHERE EXISTS (SELECT 1 FROM rects
                      WHERE (-180.0 + (i + 0.5) * (360.0 / 256)) >= w
                        AND (-180.0 + (i + 0.5) * (360.0 / 256)) <= e
                        AND (-85.0 + (j + 0.5) * (170.0 / 256)) >= s
                        AND (-85.0 + (j + 0.5) * (170.0 / 256)) <= n)),
            cells AS (SELECT i, j FROM gi, gj WHERE (i * 256 + j) % 13 = 0)
            SELECT c.i AS gx, c.j AS gy,
                   CAST(MIN(abs(c.i - o.i) + abs(c.j - o.j)) AS BIGINT) AS dist
            FROM cells c CROSS JOIN occ o
            GROUP BY c.i, c.j
            ORDER BY gx, gy
        """,
        "rects_rasterize": """
            WITH rects AS (
              SELECT s_suppkey,
                     (-180.0 + (s_suppkey * 37) % 300) AS w,
                     (-85.0 + (s_suppkey * 53) % 160) AS s,
                     (-180.0 + (s_suppkey * 37) % 300 + 5.0 + (s_suppkey % 7) * 3.0 + 0.005) AS e,
                     (-85.0 + (s_suppkey * 53) % 160 + 4.0 + (s_suppkey % 5) * 3.0 + 0.005) AS n
              FROM supplier),
            gi AS (SELECT UNNEST(range(0, 256)) AS i),
            gj AS (SELECT UNNEST(range(0, 256)) AS j)
            SELECT s_suppkey AS polygon_id,
                   i // 16 AS tile_x, j // 16 AS tile_y,
                   COUNT(*) AS n_pixels
            FROM rects, gi, gj
            WHERE (-180.0 + (i + 0.5) * (360.0 / 256)) >= w
              AND (-180.0 + (i + 0.5) * (360.0 / 256)) <= e
              AND (-85.0 + (j + 0.5) * (170.0 / 256)) >= s
              AND (-85.0 + (j + 0.5) * (170.0 / 256)) <= n
            GROUP BY polygon_id, tile_x, tile_y
        """,
        "knn_suppliers": f"""
            SELECT custkey, CAST(rnk AS INTEGER) AS rank, s_suppkey FROM (
                SELECT c_custkey AS custkey, s_suppkey,
                       row_number() OVER (
                           PARTITION BY c_custkey
                           ORDER BY 2.0 * 6371008.8 * asin(sqrt(
                               pow(sin((radians({_SLAT}) - radians({_LAT})) / 2.0), 2)
                               + cos(radians({_LAT})) * cos(radians({_SLAT}))
                               * pow(sin((radians({_SLON}) - radians({_LON})) / 2.0), 2)
                           )), s_suppkey
                       ) AS rnk
                FROM customer, supplier
                WHERE c_custkey <= 20
            ) WHERE rnk <= 3
        """,
        # rect-overlap join: interval overlap on both axes, exact for
        # axis-aligned rects (customer rects are 0.5-2 deg anchored at
        # the derived customer point; supplier rects as elsewhere)
        "rects_overlap_join": f"""
            SELECT c_custkey AS custkey, s_suppkey
            FROM customer, supplier
            WHERE {_LON} <= (-180.0 + (s_suppkey * 37) % 300 + 5.0 + (s_suppkey % 7) * 3.0 + 0.005)
              AND ({_LON} + 0.5 + (c_custkey % 4) * 0.5) >= (-180.0 + (s_suppkey * 37) % 300)
              AND {_LAT} <= (-85.0 + (s_suppkey * 53) % 160 + 4.0 + (s_suppkey % 5) * 3.0 + 0.005)
              AND ({_LAT} + 0.5 + (c_custkey % 3) * 0.5) >= (-85.0 + (s_suppkey * 53) % 160)
        """,
        "suppliers_line_interpolate": """
            WITH sp AS (SELECT s_suppkey, s_nationkey,
                          CAST((s_suppkey * 7919) % 36000 - 18000
                               AS BIGINT) AS x,
                          CAST((s_suppkey * 104729) % 17000 - 8500
                               AS BIGINT) AS y
                        FROM supplier),
            seg AS (SELECT s_nationkey, x, y,
                      LEAD(x) OVER w - x AS dx,
                      LEAD(y) OVER w - y AS dy,
                      ROW_NUMBER() OVER w AS i
                    FROM sp
                    WINDOW w AS (PARTITION BY s_nationkey
                                 ORDER BY s_suppkey)),
            segs AS (SELECT s_nationkey, x, y, dx, dy, i,
                       sqrt(CAST(dx * dx + dy * dy AS DOUBLE)) AS len
                     FROM seg WHERE dx IS NOT NULL),
            cum0 AS (SELECT *,
                       SUM(len) OVER (PARTITION BY s_nationkey
                                      ORDER BY i) AS cl
                     FROM segs),
            cum AS (SELECT *,
                      COALESCE(LAG(cl) OVER (PARTITION BY s_nationkey
                                             ORDER BY i), 0.0) AS prev
                    FROM cum0),
            tot AS (SELECT s_nationkey, MAX(cl) AS total
                    FROM cum GROUP BY s_nationkey),
            f AS (SELECT CAST(fr AS DOUBLE) AS fr
                  FROM (VALUES (0.25), (0.5), (0.75)) v(fr)),
            tgt AS (SELECT s_nationkey, fr, fr * total AS target
                    FROM tot, f),
            hit AS (SELECT t.s_nationkey, t.fr, t.target,
                           MIN(c.i) AS i
                    FROM tgt t JOIN cum c
                      ON c.s_nationkey = t.s_nationkey
                     AND c.cl >= t.target
                    GROUP BY t.s_nationkey, t.fr, t.target)
            SELECT h.s_nationkey AS nationkey,
                   CAST(h.fr * 100 AS BIGINT) AS fr_pct,
                   c.x + (h.target - c.prev) / c.len * c.dx AS px,
                   c.y + (h.target - c.prev) / c.len * c.dy AS py
            FROM hit h JOIN cum c
              ON c.s_nationkey = h.s_nationkey AND c.i = h.i
            ORDER BY nationkey, fr_pct
        """,
        "rects_contain_join": f"""
            SELECT c_custkey AS custkey, s_suppkey
            FROM customer, supplier
            WHERE (-180.0 + (s_suppkey * 37) % 300) <= {_LON}
              AND ({_LON} + 0.5 + (c_custkey % 4) * 0.5)
                  <= (-180.0 + (s_suppkey * 37) % 300 + 5.0
                      + (s_suppkey % 7) * 3.0 + 0.005)
              AND (-85.0 + (s_suppkey * 53) % 160) <= {_LAT}
              AND ({_LAT} + 0.5 + (c_custkey % 3) * 0.5)
                  <= (-85.0 + (s_suppkey * 53) % 160 + 4.0
                      + (s_suppkey % 5) * 3.0 + 0.005)
        """,
        "events_stay_points": """
            WITH p AS (SELECT user_id,
                         CAST(floor(epoch(ts)) AS BIGINT) * 16777216
                           + event_id AS o,
                         ((event_id * 7919) % 20000) // 4000 * 8
                           + ((event_id * 104729) % 17000) // 4000
                           AS cell
                       FROM events),
            l AS (SELECT *, LAG(cell) OVER (PARTITION BY user_id
                                            ORDER BY o) AS pc
                  FROM p),
            g AS (SELECT *, SUM(CASE WHEN pc IS NULL OR pc <> cell
                                     THEN 1 ELSE 0 END)
                       OVER (PARTITION BY user_id ORDER BY o) AS grp
                  FROM l)
            SELECT user_id, cell,
                   MIN(o) AS o_start, MAX(o) AS o_end,
                   CAST(COUNT(*) AS BIGINT) AS n_points
            FROM g GROUP BY user_id, cell, grp
            HAVING COUNT(*) >= 3
            ORDER BY user_id, o_start
        """,
        "orders_merge_into": """
            WITH base AS (SELECT o_orderkey AS id,
                            CAST(floor(epoch(o_orderdate) / 86400)
                                 AS BIGINT) AS ver,
                            CAST(round(o_totalprice * 100) AS BIGINT)
                                AS cents,
                            o_orderpriority
                          FROM orders),
            delta AS (SELECT id, ver + 10000 AS ver, cents * 2 AS cents,
                             o_orderpriority
                      FROM base WHERE id % 97 = 0),
            all_rows AS (SELECT *, 0 AS is_d FROM base
                         UNION ALL
                         SELECT *, 1 AS is_d FROM delta),
            u AS (SELECT * FROM (
                    SELECT *, ROW_NUMBER() OVER (
                        PARTITION BY id
                        ORDER BY ver DESC, is_d DESC) AS rn
                    FROM all_rows) WHERE rn = 1)
            SELECT o_orderpriority,
                   CAST(COUNT(*) AS BIGINT) AS n_rows,
                   CAST(SUM(cents) AS BIGINT) AS sum_cents
            FROM u GROUP BY o_orderpriority
            ORDER BY o_orderpriority
        """,
        "orders_merge_on_read": """
            WITH base AS (SELECT o_orderkey AS id,
                            CAST(floor(epoch(o_orderdate) / 86400)
                                 AS BIGINT) AS ver,
                            CAST(round(o_totalprice * 100) AS BIGINT)
                                AS cents,
                            o_orderpriority
                          FROM orders),
            d1 AS (SELECT id, ver + 10000 AS ver, cents * 2 AS cents,
                          o_orderpriority
                   FROM base WHERE id % 97 = 0),
            d2 AS (SELECT id, ver + 10000 AS ver, cents * 3 AS cents,
                          o_orderpriority
                   FROM base WHERE id % 194 = 0),
            all_rows AS (SELECT *, 0 AS is_d FROM base
                         UNION ALL SELECT *, 1 AS is_d FROM d1
                         UNION ALL SELECT *, 2 AS is_d FROM d2),
            u AS (SELECT * FROM (
                    SELECT *, ROW_NUMBER() OVER (
                        PARTITION BY id
                        ORDER BY ver DESC, is_d DESC) AS rn
                    FROM all_rows) WHERE rn = 1)
            SELECT o_orderpriority,
                   CAST(COUNT(*) AS BIGINT) AS n_rows,
                   CAST(SUM(cents) AS BIGINT) AS sum_cents
            FROM u GROUP BY o_orderpriority
            ORDER BY o_orderpriority
        """,
        "tpch_q6": """
            SELECT CAST(COALESCE(SUM(
                       CAST(round(l_extendedprice * 100) AS BIGINT)
                       * CAST(round(l_discount * 100) AS BIGINT)), 0)
                   AS BIGINT) AS revenue_c2
            FROM lineitem
            WHERE l_shipdate >= DATE '1996-01-01'
              AND l_shipdate < DATE '1997-01-01'
              AND CAST(round(l_discount * 100) AS BIGINT) BETWEEN 5 AND 7
              AND l_quantity < 24
        """,
        "tpch_q15": """
            WITH revenue AS (
                SELECT l_suppkey AS s_suppkey,
                       CAST(SUM(CAST(round(l_extendedprice * 100)
                               AS BIGINT)
                           * (100 - CAST(round(l_discount * 100)
                               AS BIGINT))) AS BIGINT)
                           AS total_revenue_c2
                FROM lineitem
                WHERE l_shipdate >= DATE '1997-01-01'
                  AND l_shipdate < DATE '1997-04-01'
                GROUP BY l_suppkey)
            SELECT s.s_suppkey, s_name, total_revenue_c2
            FROM supplier s JOIN revenue r ON s.s_suppkey = r.s_suppkey
            WHERE total_revenue_c2 =
                  (SELECT MAX(total_revenue_c2) FROM revenue)
            ORDER BY s.s_suppkey
        """,
        "tpch_q17": """
            WITH agg AS (
                SELECT l_partkey,
                       CAST(SUM(CAST(round(l_quantity) AS BIGINT))
                           AS BIGINT) AS sum_qty,
                       CAST(COUNT(*) AS BIGINT) AS n
                FROM lineitem
                JOIN part ON l_partkey = p_partkey
                WHERE p_brand = 'Brand#7' AND p_size < 15
                GROUP BY l_partkey)
            SELECT CAST(COALESCE(SUM(
                       CAST(round(l_extendedprice * 100) AS BIGINT)), 0)
                   AS BIGINT) AS sum_cents,
                   CAST(COUNT(*) AS BIGINT) AS n_rows
            FROM lineitem JOIN agg ON lineitem.l_partkey = agg.l_partkey
            WHERE 5 * CAST(round(l_quantity) AS BIGINT) * n < sum_qty
        """,
        "tpch_q8": """
            WITH vol AS (
                SELECT CAST(EXTRACT(year FROM o_orderdate) AS BIGINT)
                           AS o_year,
                       CAST(round(l_extendedprice * 100) AS BIGINT)
                       * (100 - CAST(round(l_discount * 100) AS BIGINT))
                           AS rev,
                       s_nationkey
                FROM lineitem
                JOIN orders ON l_orderkey = o_orderkey
                JOIN part ON l_partkey = p_partkey
                JOIN supplier ON l_suppkey = s_suppkey
                JOIN customer ON o_custkey = c_custkey
                JOIN nation cn ON c_nationkey = cn.n_nationkey
                JOIN region ON cn.n_regionkey = r_regionkey
                WHERE p_type = 'PROMO' AND r_name = 'AMERICA'
                  AND o_orderdate >= DATE '1996-01-01'
                  AND o_orderdate < DATE '1998-01-01')
            SELECT o_year,
                   CAST(SUM(CASE WHEN s_nationkey =
                       (SELECT n_nationkey FROM nation
                        WHERE n_name = 'NATION_6')
                       THEN rev ELSE 0 END) AS BIGINT) AS num_c2,
                   CAST(SUM(rev) AS BIGINT) AS den_c2
            FROM vol GROUP BY o_year ORDER BY o_year
        """,
        "tpch_q9": """
            SELECT n_name,
                   CAST(EXTRACT(year FROM o_orderdate) AS BIGINT)
                       AS o_year,
                   CAST(SUM(
                       CAST(round(l_extendedprice * 100) AS BIGINT)
                       * (100 - CAST(round(l_discount * 100) AS BIGINT))
                       - CAST(round(p_retailprice * 100) AS BIGINT)
                         * 100 * CAST(round(l_quantity) AS BIGINT))
                       AS BIGINT) AS profit_c2
            FROM lineitem
            JOIN orders ON l_orderkey = o_orderkey
            JOIN part ON l_partkey = p_partkey
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN nation ON s_nationkey = n_nationkey
            WHERE p_name LIKE '%red%'
            GROUP BY n_name, o_year
            ORDER BY n_name, o_year DESC
        """,
        "tpch_q11": """
            WITH v AS (
                SELECT l_partkey,
                       CAST(SUM(
                           CAST(round(l_extendedprice * 100) AS BIGINT)
                           * (100 - CAST(round(l_discount * 100)
                               AS BIGINT))) AS BIGINT) AS value_c2
                FROM lineitem
                JOIN supplier ON l_suppkey = s_suppkey
                JOIN nation ON s_nationkey = n_nationkey
                WHERE n_name = 'NATION_4'
                GROUP BY l_partkey)
            SELECT l_partkey, value_c2 FROM v
            WHERE value_c2 * 1000 > (SELECT SUM(value_c2) FROM v)
            ORDER BY value_c2 DESC, l_partkey
        """,
        "tpch_q21": """
            WITH l AS (
                SELECT l_orderkey, l_suppkey,
                       (l_shipdate > o_orderdate + INTERVAL 90 DAY)
                           AS late
                FROM lineitem JOIN orders ON l_orderkey = o_orderkey
                WHERE o_orderstatus = 'F'),
            o AS (
                SELECT l_orderkey,
                       COUNT(DISTINCT l_suppkey) AS ns,
                       COUNT(DISTINCT CASE WHEN late THEN l_suppkey
                                      END) AS nl,
                       MAX(CASE WHEN late THEN l_suppkey END)
                           AS the_late
                FROM l GROUP BY l_orderkey)
            SELECT s_name, CAST(COUNT(*) AS BIGINT) AS numwait
            FROM o JOIN supplier ON the_late = s_suppkey
            WHERE ns > 1 AND nl = 1
            GROUP BY s_name
            ORDER BY numwait DESC, s_name LIMIT 100
        """,
        "tpch_q2": """
            WITH ps AS (SELECT DISTINCT l_partkey, l_suppkey
                        FROM lineitem),
            cand AS (
                SELECT p_partkey, s_suppkey,
                       CAST(round(s_acctbal * 100) AS BIGINT) AS bal,
                       s_name, n_name
                FROM ps
                JOIN part ON l_partkey = p_partkey
                JOIN supplier ON l_suppkey = s_suppkey
                JOIN nation ON s_nationkey = n_nationkey
                JOIN region ON n_regionkey = r_regionkey
                WHERE p_type = 'SMALL' AND p_size = 15
                  AND r_name = 'EUROPE'),
            m AS (SELECT p_partkey, MIN(bal) AS mb
                  FROM cand GROUP BY p_partkey)
            SELECT bal AS s_acctbal_cents, s_name, n_name,
                   cand.p_partkey
            FROM cand JOIN m ON cand.p_partkey = m.p_partkey
            WHERE bal = mb
            ORDER BY s_acctbal_cents DESC, n_name, s_name,
                     cand.p_partkey
            LIMIT 100
        """,
        "tpch_q16": """
            SELECT p_brand, CAST(p_size AS BIGINT) AS p_size,
                   CAST(COUNT(DISTINCT l_suppkey) AS BIGINT)
                       AS supplier_cnt
            FROM (SELECT DISTINCT l_partkey, l_suppkey
                  FROM lineitem) ps
            JOIN part ON l_partkey = p_partkey
            JOIN supplier ON l_suppkey = s_suppkey
            WHERE p_brand <> 'Brand#5' AND s_acctbal >= 0
            GROUP BY p_brand, p_size
            ORDER BY supplier_cnt DESC, p_brand, p_size
        """,
        "tpch_q20": """
            WITH rp AS (SELECT p_partkey FROM part
                        WHERE p_name LIKE '%red%'),
            agg AS (
                SELECT l_partkey, l_suppkey,
                       CAST(SUM(CAST(round(l_quantity) AS BIGINT))
                           AS BIGINT) AS sq
                FROM lineitem JOIN rp ON l_partkey = p_partkey
                WHERE l_shipdate >= DATE '1997-01-01'
                  AND l_shipdate < DATE '1998-01-01'
                GROUP BY l_partkey, l_suppkey),
            tot AS (SELECT l_partkey, SUM(sq) AS tq
                    FROM agg GROUP BY l_partkey)
            SELECT DISTINCT s_name
            FROM agg
            JOIN tot ON agg.l_partkey = tot.l_partkey
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN nation ON s_nationkey = n_nationkey
            WHERE 5 * sq > tq AND n_name = 'NATION_2'
            ORDER BY s_name
        """,
        "orders_time_travel": """
            WITH base AS (SELECT o_orderkey AS id,
                            CAST(floor(epoch(o_orderdate) / 86400)
                                 AS BIGINT) AS ver,
                            CAST(round(o_totalprice * 100) AS BIGINT)
                                AS cents,
                            o_orderpriority
                          FROM orders),
            d1 AS (SELECT id, ver + 10000 AS ver, cents * 2 AS cents,
                          o_orderpriority
                   FROM base WHERE id % 97 = 0),
            all_rows AS (SELECT *, 0 AS is_d FROM base
                         UNION ALL SELECT *, 1 AS is_d FROM d1),
            u AS (SELECT * FROM (
                    SELECT *, ROW_NUMBER() OVER (
                        PARTITION BY id
                        ORDER BY ver DESC, is_d DESC) AS rn
                    FROM all_rows) WHERE rn = 1)
            SELECT o_orderpriority,
                   CAST(COUNT(*) AS BIGINT) AS n_rows,
                   CAST(SUM(cents) AS BIGINT) AS sum_cents
            FROM u GROUP BY o_orderpriority
            ORDER BY o_orderpriority
        """,
        "orders_change_feed": """
            WITH base AS (SELECT o_orderkey AS id,
                            CAST(floor(epoch(o_orderdate) / 86400)
                                 AS BIGINT) AS ver,
                            CAST(round(o_totalprice * 100) AS BIGINT)
                                AS cents,
                            o_orderpriority
                          FROM orders),
            d1 AS (SELECT id, ver + 10000 AS ver, cents * 2 AS cents,
                          o_orderpriority
                   FROM base WHERE id % 97 = 0),
            d2 AS (SELECT id, ver + 20000 AS ver, cents * 3 AS cents,
                          o_orderpriority
                   FROM base WHERE id % 194 = 0
                   UNION ALL
                   SELECT id + 100000000, ver + 20000, cents * 3,
                          o_orderpriority
                   FROM base WHERE id % 500 = 0),
            s1 AS (SELECT id, ver, cents, o_orderpriority FROM (
                     SELECT *, ROW_NUMBER() OVER (PARTITION BY id
                         ORDER BY ver DESC, is_d DESC) AS rn
                     FROM (SELECT *, 0 AS is_d FROM base
                           UNION ALL SELECT *, 1 AS is_d FROM d1))
                   WHERE rn = 1),
            s2 AS (SELECT id, ver, cents, o_orderpriority FROM (
                     SELECT *, ROW_NUMBER() OVER (PARTITION BY id
                         ORDER BY ver DESC, is_d DESC) AS rn
                     FROM (SELECT *, 0 AS is_d FROM base
                           UNION ALL SELECT *, 1 AS is_d FROM d1
                           UNION ALL SELECT *, 2 AS is_d FROM d2))
                   WHERE rn = 1),
            diff AS (
                SELECT COALESCE(s2.id, s1.id) AS id,
                       s1.cents AS c1, s2.cents AS c2,
                       CASE WHEN s1.id IS NULL THEN 'insert'
                            WHEN s2.id IS NULL THEN 'delete'
                            WHEN (s1.ver, s1.cents, s1.o_orderpriority)
                                 IS DISTINCT FROM
                                 (s2.ver, s2.cents, s2.o_orderpriority)
                            THEN 'update' END AS typ
                FROM s1 FULL OUTER JOIN s2 ON s1.id = s2.id),
            changes AS (
                SELECT 'insert' AS _change_type, id, c2 AS cents
                FROM diff WHERE typ = 'insert'
                UNION ALL
                SELECT 'update_preimage', id, c1
                FROM diff WHERE typ = 'update'
                UNION ALL
                SELECT 'update_postimage', id, c2
                FROM diff WHERE typ = 'update')
            SELECT _change_type,
                   CAST(COUNT(*) AS BIGINT) AS n_rows,
                   CAST(SUM(cents) AS BIGINT) AS sum_cents,
                   CAST(SUM(id) AS BIGINT) AS id_sum
            FROM changes GROUP BY _change_type ORDER BY _change_type
        """,
        "orders_schema_evolution": """
            SELECT o_orderpriority,
                   CASE WHEN o_orderkey % 4 = 0 THEN 2 ELSE 1 END
                       AS flag,
                   CAST(COUNT(*) AS BIGINT) AS n_rows,
                   CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT))
                       AS BIGINT) AS sum_cents
            FROM orders
            GROUP BY o_orderpriority, flag
            ORDER BY o_orderpriority, flag
        """,
        "events_watermark_hourly": """
            WITH e AS (SELECT event_id % 8 AS wave,
                          CAST(epoch_us(ts) AS BIGINT) AS tus,
                          CAST(epoch_us(ts) AS BIGINT) // 3600000000 AS window_id,
                          CAST(round(value * 100) AS BIGINT) AS cents
                       FROM events),
            wx AS (SELECT wave, MAX(tus) AS max_t FROM e GROUP BY wave),
            wm AS (SELECT wave, MAX(max_t) OVER (ORDER BY wave
                     ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS pmax
                   FROM wx),
            c AS (SELECT e.window_id, e.cents,
                    CASE WHEN wm.pmax IS NOT NULL
                          AND (e.window_id + 1) * 3600000000 <= wm.pmax - 7200000000
                         THEN 1 ELSE 0 END AS late
                  FROM e JOIN wm USING (wave))
            SELECT window_id,
                   CAST(SUM(CASE WHEN late = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_ontime,
                   CAST(SUM(CASE WHEN late = 0 THEN cents ELSE 0 END) AS BIGINT) AS cents_ontime,
                   CAST(SUM(late) AS BIGINT) AS n_late
            FROM c GROUP BY window_id ORDER BY window_id
        """,
        "orders_join_view_maintenance": """
            WITH a AS (SELECT o_orderkey AS id,
                        CASE WHEN o_orderkey % 23 = 2
                             THEN CAST(round(o_totalprice * 100) AS BIGINT) * 5
                             ELSE CAST(round(o_totalprice * 100) AS BIGINT) END AS cents,
                        CASE WHEN o_orderkey % 23 = 2 THEN o_custkey
                             WHEN o_orderkey % 31 = 4
                             THEN (o_custkey + 13) % (SELECT count(*) FROM customer)
                             ELSE o_custkey END AS custkey
                       FROM orders),
            b AS (SELECT c_custkey,
                    CASE WHEN c_custkey % 17 = 6 THEN 'MOVED'
                         ELSE c_mktsegment END AS segment
                  FROM customer)
            SELECT segment, CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(sum(cents) AS BIGINT) AS sum_cents
            FROM a JOIN b ON a.custkey = b.c_custkey
            GROUP BY segment ORDER BY segment
        """,
        "orders_txn_consistency": """
            WITH base AS (SELECT o_orderkey AS id,
                            CAST(round(o_totalprice * 100) AS BIGINT) AS cents,
                            o_orderpriority FROM orders),
            eff AS (SELECT id, o_orderpriority,
                      CASE WHEN id % 13 = 1 THEN cents * 2
                           WHEN id % 7 = 3 THEN cents * 3
                           ELSE cents END AS c
                    FROM base)
            SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n_orders,
                   CAST(SUM(c) AS BIGINT) AS sum_cents_a,
                   CAST(SUM(c) AS BIGINT) AS sum_cents_b,
                   CAST(0 AS BIGINT) AS n_mismatch
            FROM eff GROUP BY o_orderpriority ORDER BY o_orderpriority
        """,
        "lineitem_gini_by_flag": """
            WITH x AS (SELECT l_returnflag,
                         CAST(round(l_extendedprice * 100) AS BIGINT) AS v
                       FROM lineitem),
            r AS (SELECT l_returnflag, v,
                    ROW_NUMBER() OVER (PARTITION BY l_returnflag
                                       ORDER BY v) AS rk
                  FROM x)
            SELECT l_returnflag, CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(SUM(v) AS BIGINT) AS sum_v,
                   CAST(2 * SUM(rk * v) - (COUNT(*) + 1) * SUM(v)
                        AS BIGINT) AS gini_num
            FROM r GROUP BY l_returnflag ORDER BY l_returnflag
        """,
        "customers_hausdorff_nations": """
            WITH p AS (SELECT c_custkey AS k, c_nationkey AS n,
                         (c_custkey * 37) % 3600 - 1800 AS x,
                         (c_custkey * 53) % 1700 - 850 AS y
                       FROM customer),
            d AS (SELECT a.n AS code_a, b.n AS code_b, a.k,
                    MIN((a.x - b.x) * (a.x - b.x)
                        + (a.y - b.y) * (a.y - b.y)) AS mind
                  FROM p a JOIN p b ON a.n <> b.n
                  GROUP BY a.n, b.n, a.k)
            SELECT code_a, code_b,
                   CAST(MAX(mind) AS BIGINT) AS hausdorff_d2
            FROM d GROUP BY code_a, code_b ORDER BY code_a, code_b
        """,
        "lineitem_benford": """
            SELECT l_returnflag,
                   CAST(substr(CAST(CAST(round(l_extendedprice * 100)
                       AS BIGINT) AS VARCHAR), 1, 1) AS BIGINT) AS digit,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM lineitem GROUP BY 1, 2 ORDER BY l_returnflag, digit
        """,
        "events_rank_test": """
            WITH e AS (SELECT event_type,
                         CAST(round(value * 100) AS BIGINT) AS v,
                         CASE WHEN user_id % 2 <> 0 THEN 1 ELSE 0 END AS grp
                       FROM events WHERE value IS NOT NULL),
            r AS (SELECT event_type, grp,
                    RANK() OVER (PARTITION BY event_type ORDER BY v) AS rlo,
                    COUNT(*) OVER (PARTITION BY event_type, v) AS ceq
                  FROM e),
            s AS (SELECT event_type,
                    CAST(SUM(CASE WHEN grp = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_a,
                    CAST(SUM(CASE WHEN grp = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_b,
                    CAST(SUM(CASE WHEN grp = 0 THEN 2 * rlo + ceq - 1 ELSE 0 END)
                         AS BIGINT) AS r2_a
                  FROM r GROUP BY event_type)
            SELECT event_type, n_a, n_b,
                   CAST(r2_a - n_a * (n_a + 1) AS BIGINT) AS u2_a
            FROM s ORDER BY event_type
        """,
        "events_seasonal_anomalies": """
            WITH c AS (SELECT event_type,
                           CAST(EXTRACT(day FROM ts) AS BIGINT) AS day,
                           CAST(EXTRACT(hour FROM ts) AS BIGINT)
                               AS hour,
                           CAST(COUNT(*) AS BIGINT) AS n_events
                       FROM events GROUP BY 1, 2, 3),
            m AS (SELECT event_type, hour,
                         CAST(percentile_disc(0.5) WITHIN GROUP
                             (ORDER BY n_events) AS BIGINT) AS med_n
                  FROM c GROUP BY 1, 2)
            SELECT c.event_type, day, c.hour, n_events, med_n
            FROM c JOIN m ON c.event_type = m.event_type
                         AND c.hour = m.hour
            WHERE 2 * n_events > 3 * med_n
            ORDER BY c.event_type, day, c.hour
        """,
        "docs_token_drift": """
            WITH t AS (
              SELECT CASE WHEN CAST(substr(source, 4) AS BIGINT) < 10
                          THEN 0 ELSE 1 END AS grp,
                     unnest(regexp_split_to_array(text, '\\s+')) AS term
              FROM documents),
            c AS (SELECT term,
                    CAST(SUM(CASE WHEN grp = 0 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_a,
                    CAST(SUM(CASE WHEN grp = 1 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_b
                  FROM t WHERE term <> '' GROUP BY term),
            tot AS (SELECT CAST(SUM(n_a) AS BIGINT) AS pt,
                           CAST(SUM(n_b) AS BIGINT) AS qt FROM c)
            SELECT term, n_a, n_b,
                   CAST(abs(n_a * qt - n_b * pt) AS BIGINT) AS drift
            FROM c, tot
            ORDER BY drift DESC, term LIMIT 20
        """,
        "docs_curation_funnel": r"""
            WITH q AS (SELECT doc_id, lang, source,
                          CAST(len(string_split_regex(text, '\s+'))
                              AS BIGINT) AS toks,
                          CAST(length(text) AS BIGINT) AS chars
                       FROM documents),
            qual AS (SELECT * FROM q
                     WHERE chars >= 100 AND 3 * toks <= chars
                       AND chars <= 12 * toks),
            ded AS (SELECT * FROM qual
                    QUALIFY row_number() OVER (
                        PARTITION BY lang, source
                        ORDER BY doc_id) = 1),
            spl AS (SELECT * FROM ded WHERE doc_id % 8 = 0)
            SELECT 'a_total' AS stage,
                   CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(COALESCE(SUM(toks), 0) AS BIGINT) AS n_tokens
            FROM q
            UNION ALL SELECT 'b_quality', CAST(COUNT(*) AS BIGINT),
                   CAST(COALESCE(SUM(toks), 0) AS BIGINT) FROM qual
            UNION ALL SELECT 'c_dedup', CAST(COUNT(*) AS BIGINT),
                   CAST(COALESCE(SUM(toks), 0) AS BIGINT) FROM ded
            UNION ALL SELECT 'd_split', CAST(COUNT(*) AS BIGINT),
                   CAST(COALESCE(SUM(toks), 0) AS BIGINT) FROM spl
            ORDER BY stage
        """,
        "orders_rebalance": """
            WITH base AS (SELECT o_orderkey AS id,
                            CAST(floor(epoch(o_orderdate) / 86400)
                                 AS BIGINT) AS ver,
                            CAST(round(o_totalprice * 100) AS BIGINT)
                                AS cents,
                            o_orderpriority
                          FROM orders),
            delta AS (SELECT id, ver + 10000 AS ver, cents * 2 AS cents,
                             o_orderpriority
                      FROM base WHERE id % 97 = 0),
            all_rows AS (SELECT *, 0 AS is_d FROM base
                         UNION ALL
                         SELECT *, 1 AS is_d FROM delta),
            u AS (SELECT * FROM (
                    SELECT *, ROW_NUMBER() OVER (
                        PARTITION BY id
                        ORDER BY ver DESC, is_d DESC) AS rn
                    FROM all_rows) WHERE rn = 1)
            SELECT o_orderpriority,
                   CAST(COUNT(*) AS BIGINT) AS n_rows,
                   CAST(SUM(cents) AS BIGINT) AS sum_cents
            FROM u GROUP BY o_orderpriority
            ORDER BY o_orderpriority
        """,
        "docs_unigram_surprise": r"""
            WITH t AS (
              SELECT doc_id,
                     unnest(regexp_split_to_array(text, '\s+')) AS term
              FROM documents),
            tt AS (SELECT doc_id, term FROM t WHERE term <> ''),
            df AS (SELECT term,
                          CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df
                   FROM tt GROUP BY term),
            n AS (SELECT CAST(COUNT(*) AS BIGINT) AS nd
                  FROM documents)
            SELECT doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_tokens,
                   CAST(SUM(length(bin(nd // df))) AS BIGINT)
                       AS surprise
            FROM tt JOIN df USING (term), n
            GROUP BY doc_id
            ORDER BY surprise DESC, doc_id LIMIT 20
        """,
        "orders_point_lookup": """
            WITH base AS (SELECT o_orderkey AS id,
                            CAST(floor(epoch(o_orderdate) / 86400)
                                 AS BIGINT) AS ver,
                            CAST(round(o_totalprice * 100) AS BIGINT)
                                AS cents,
                            o_orderpriority
                          FROM orders),
            d1 AS (SELECT id, ver + 10000 AS ver, cents * 2 AS cents,
                          o_orderpriority
                   FROM base WHERE id % 97 = 0),
            u AS (SELECT id, ver, cents, o_orderpriority FROM (
                    SELECT *, ROW_NUMBER() OVER (PARTITION BY id
                        ORDER BY ver DESC, is_d DESC) AS rn
                    FROM (SELECT *, 0 AS is_d FROM base
                          UNION ALL SELECT *, 1 AS is_d FROM d1))
                  WHERE rn = 1)
            SELECT id, ver, cents, o_orderpriority
            FROM u WHERE id % 997 = 0
            ORDER BY id
        """,
        "lineitem_constraints": """
            WITH fk1 AS (
                SELECT CAST(COUNT(*) AS BIGINT) AS n_checked,
                       CAST(COUNT(DISTINCT CASE WHEN o.o_orderkey
                           IS NULL THEN l.l_orderkey END) AS BIGINT)
                           AS v
                FROM lineitem l LEFT JOIN orders o
                  ON l.l_orderkey = o.o_orderkey),
            fk2 AS (
                SELECT CAST(COUNT(*) AS BIGINT) AS n_checked,
                       CAST(SUM(CASE WHEN s.s_suppkey IS NULL
                           THEN 1 ELSE 0 END) AS BIGINT) AS v
                FROM lineitem l LEFT JOIN
                     (SELECT s_suppkey FROM supplier
                      WHERE s_acctbal >= 0) s
                  ON l.l_suppkey = s.s_suppkey),
            pk AS (
                SELECT CAST(COUNT(*) AS BIGINT) AS n_checked,
                       CAST(COUNT(*) - COUNT(DISTINCT
                           l_orderkey * 8 + l_linenumber) AS BIGINT)
                           AS v
                FROM lineitem)
            SELECT 'fk_orderkey' AS "check", n_checked,
                   v AS n_violations FROM fk1
            UNION ALL SELECT 'fk_suppkey_posbal', n_checked, v
            FROM fk2
            UNION ALL SELECT 'pk_orderkey_linenumber', n_checked, v
            FROM pk
            ORDER BY "check"
        """,
        "orders_cdc_to_view": """
            WITH base AS (SELECT o_orderkey AS id,
                            CAST(floor(epoch(o_orderdate) / 86400)
                                 AS BIGINT) AS ver,
                            CAST(round(o_totalprice * 100) AS BIGINT)
                                AS cents,
                            o_custkey
                          FROM orders),
            d1 AS (SELECT id, ver + 10000 AS ver, cents * 2 AS cents,
                          o_custkey
                   FROM base WHERE id % 97 = 0),
            d2 AS (SELECT id + 100000000 AS id, ver + 20000 AS ver,
                          cents * 3 AS cents, o_custkey
                   FROM base WHERE id % 500 = 0),
            u AS (SELECT id, ver, cents, o_custkey FROM (
                    SELECT *, ROW_NUMBER() OVER (PARTITION BY id
                        ORDER BY ver DESC, is_d DESC) AS rn
                    FROM (SELECT *, 0 AS is_d FROM base
                          UNION ALL SELECT *, 1 AS is_d FROM d1
                          UNION ALL SELECT *, 2 AS is_d FROM d2))
                  WHERE rn = 1),
            g AS (SELECT o_custkey,
                         CAST(COUNT(*) AS BIGINT) AS n_rows,
                         CAST(SUM(cents) AS BIGINT) AS sum_cents
                  FROM u GROUP BY o_custkey)
            SELECT o_custkey % 16 AS bucket,
                   CAST(COUNT(*) AS BIGINT) AS n_groups,
                   CAST(SUM(n_rows) AS BIGINT) AS n_rows,
                   CAST(SUM(sum_cents) AS BIGINT) AS sum_cents,
                   CAST(SUM(o_custkey * n_rows) AS BIGINT)
                       AS key_rowsum
            FROM g GROUP BY 1 ORDER BY 1
        """,
        "orders_agg_view": """
            WITH eff AS (SELECT o_custkey,
                            CAST(round(o_totalprice * 100) AS BIGINT)
                                AS cents
                         FROM orders WHERE o_orderkey % 8 <> 1),
            g AS (SELECT o_custkey,
                         CAST(COUNT(*) AS BIGINT) AS n_rows,
                         CAST(SUM(cents) AS BIGINT) AS sum_cents
                  FROM eff GROUP BY o_custkey)
            SELECT o_custkey % 16 AS bucket,
                   CAST(COUNT(*) AS BIGINT) AS n_groups,
                   CAST(SUM(n_rows) AS BIGINT) AS n_rows,
                   CAST(SUM(sum_cents) AS BIGINT) AS sum_cents,
                   CAST(SUM(o_custkey * n_rows) AS BIGINT) AS key_rowsum
            FROM g GROUP BY 1 ORDER BY 1
        """,
        "parts_copurchase_lift": """
            WITH d AS (SELECT DISTINCT l_orderkey, l_partkey
                       FROM lineitem),
            pr AS (SELECT a.l_partkey AS p1, b.l_partkey AS p2,
                          CAST(COUNT(*) AS BIGINT) AS n_both
                   FROM d a JOIN d b
                     ON a.l_orderkey = b.l_orderkey
                    AND a.l_partkey < b.l_partkey
                   GROUP BY 1, 2
                   ORDER BY n_both DESC, p1, p2 LIMIT 50),
            m AS (SELECT l_partkey, CAST(COUNT(*) AS BIGINT)
                             AS n_orders
                  FROM d GROUP BY l_partkey)
            SELECT p1, p2, n_both,
                   m1.n_orders AS n_p1, m2.n_orders AS n_p2,
                   (SELECT CAST(COUNT(*) AS BIGINT) FROM orders)
                       AS n_orders_total
            FROM pr JOIN m m1 ON m1.l_partkey = p1
                    JOIN m m2 ON m2.l_partkey = p2
            ORDER BY n_both DESC, p1, p2
        """,
        "parts_copurchase_top": """
            WITH d AS (SELECT DISTINCT l_orderkey, l_partkey
                       FROM lineitem),
            p AS (SELECT a.l_partkey AS p1, b.l_partkey AS p2
                  FROM d a JOIN d b
                    ON a.l_orderkey = b.l_orderkey
                   AND a.l_partkey < b.l_partkey)
            SELECT p1, p2, CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM p GROUP BY p1, p2
            ORDER BY n_orders DESC, p1, p2
            LIMIT 50
        """,
        "events_ohlc_hourly": """
            WITH e AS (SELECT user_id,
                          CAST(floor(epoch(ts) / 3600) AS BIGINT) AS hr,
                          CAST(epoch_us(ts) AS BIGINT) AS t, event_id,
                          CAST(round(value * 100) AS BIGINT) AS c
                       FROM events),
            r AS (SELECT user_id, hr, c,
                    ROW_NUMBER() OVER (PARTITION BY user_id, hr
                                       ORDER BY t, event_id) AS rn_a,
                    ROW_NUMBER() OVER (PARTITION BY user_id, hr
                                       ORDER BY t DESC,
                                                event_id DESC) AS rn_d
                  FROM e)
            SELECT user_id, hr,
                   CAST(MAX(CASE WHEN rn_a = 1 THEN c END) AS BIGINT)
                       AS open_c2,
                   CAST(MAX(c) AS BIGINT) AS high_c2,
                   CAST(MIN(c) AS BIGINT) AS low_c2,
                   CAST(MAX(CASE WHEN rn_d = 1 THEN c END) AS BIGINT)
                       AS close_c2,
                   CAST(COUNT(*) AS BIGINT) AS n_events
            FROM r GROUP BY user_id, hr
            ORDER BY user_id, hr
        """,
        "suppliers_subtree_sums": """
            WITH RECURSIVE walk(node, anc) AS (
                SELECT s_suppkey, s_suppkey FROM supplier
                UNION ALL
                SELECT node, anc // 2 FROM walk WHERE anc >= 2
            ),
            v AS (SELECT s_suppkey AS node,
                         CAST(round(s_acctbal * 100) AS BIGINT) AS cents
                  FROM supplier)
            SELECT anc AS s_suppkey,
                   CAST(COUNT(*) AS BIGINT) AS n_nodes,
                   CAST(SUM(cents) AS BIGINT) AS subtree_cents
            FROM walk JOIN v USING (node)
            GROUP BY anc
            ORDER BY anc
        """,
        "od_matrix_2000km": f"""
            SELECT c_nationkey AS cust_nation,
                   s_nationkey AS supp_nation,
                   CAST(COUNT(*) AS BIGINT) AS n_pairs
            FROM customer, supplier
            WHERE 2.0 * 6371008.8 * asin(sqrt(
                      pow(sin((radians({_SLAT}) - radians({_LAT})) / 2.0), 2)
                      + cos(radians({_LAT})) * cos(radians({_SLAT}))
                      * pow(sin((radians({_SLON}) - radians({_LON})) / 2.0), 2)
                  )) <= 2000000.0
            GROUP BY c_nationkey, s_nationkey
            ORDER BY cust_nation, supp_nation
        """,
        # radius join: exact haversine <= 2000 km predicate
        "suppliers_within_2000km": f"""
            SELECT c_custkey AS custkey, s_suppkey
            FROM customer, supplier
            WHERE 2.0 * 6371008.8 * asin(sqrt(
                      pow(sin((radians({_SLAT}) - radians({_LAT})) / 2.0), 2)
                      + cos(radians({_LAT})) * cos(radians({_SLAT}))
                      * pow(sin((radians({_SLON}) - radians({_LON})) / 2.0), 2)
                  )) <= 2000000.0
        """,
        # the S2-cell shuffle route must produce the IDENTICAL kNN
        # result — radius certification + escalation only bound the
        # candidate set, never change it
        "knn_suppliers_s2": f"""
            SELECT custkey, CAST(rnk AS INTEGER) AS rank, s_suppkey FROM (
                SELECT c_custkey AS custkey, s_suppkey,
                       row_number() OVER (
                           PARTITION BY c_custkey
                           ORDER BY 2.0 * 6371008.8 * asin(sqrt(
                               pow(sin((radians({_SLAT}) - radians({_LAT})) / 2.0), 2)
                               + cos(radians({_LAT})) * cos(radians({_SLAT}))
                               * pow(sin((radians({_SLON}) - radians({_LON})) / 2.0), 2)
                           )), s_suppkey
                       ) AS rnk
                FROM customer, supplier
                WHERE c_custkey <= 20
            ) WHERE rnk <= 3
        """,
        "codec_roundtrip_points": f"""
            SELECT c_custkey AS custkey,
                   trunc({_LON} * 10000000) / 10000000 AS lon_q,
                   trunc({_LAT} * 10000000) / 10000000 AS lat_q
            FROM customer
        """,
        "codec_wkb_roundtrip": f"""
            SELECT c_custkey AS custkey,
                   {_LON} AS lon,
                   {_LAT} AS lat
            FROM customer
        """,
        "codec_geoparquet_roundtrip": f"""
            SELECT c_custkey AS custkey,
                   {_LON} AS lon,
                   {_LAT} AS lat
            FROM customer
            ORDER BY custkey
        """,
        # measures oracle: both sides work in the quantized int64
        # lattice (trunc toward zero at 1e7 — the codec's native
        # domain), so the doubled shoelace area and Manhattan perimeter
        # are EXACT BIGINT arithmetic; the vertex expressions repeat
        # pipelines/queries.py supplier_triangles term-for-term so the
        # float64 products agree bit-for-bit before truncation
        # connected-components oracle: symmetrized deterministic edge
        # set, full reachability via recursive CTE, per-node min
        "suppliers_components": """
            WITH RECURSIVE e AS (
              SELECT s_suppkey AS a, s_suppkey - (s_suppkey % 7) AS b FROM supplier
              UNION ALL
              SELECT s_suppkey - (s_suppkey % 7), s_suppkey FROM supplier
              UNION ALL
              SELECT s_suppkey, s_suppkey - 1 FROM supplier WHERE s_suppkey % 10 = 0
              UNION ALL
              SELECT s_suppkey - 1, s_suppkey FROM supplier WHERE s_suppkey % 10 = 0
            ),
            r AS (
              SELECT a AS node, b AS reach FROM e
              UNION
              SELECT r.node, e.b FROM r JOIN e ON r.reach = e.a
            )
            SELECT node, LEAST(node, MIN(reach)) AS component
            FROM r GROUP BY node
        """,
        "suppliers_random_walks": """
            WITH e AS (
              SELECT s_suppkey AS a, s_suppkey - (s_suppkey % 7) AS b FROM supplier
              UNION ALL SELECT s_suppkey - (s_suppkey % 7), s_suppkey FROM supplier
              UNION ALL SELECT s_suppkey, s_suppkey - 1 FROM supplier WHERE s_suppkey % 10 = 0
              UNION ALL SELECT s_suppkey - 1, s_suppkey FROM supplier WHERE s_suppkey % 10 = 0),
            w0 AS (SELECT DISTINCT s_suppkey AS start, s_suppkey AS node
                   FROM supplier WHERE s_suppkey % 8 = 0),
            w1 AS (SELECT f.start, e.b AS node FROM w0 f JOIN e ON e.a = f.node
               QUALIFY row_number() OVER (PARTITION BY f.start
                 ORDER BY (((f.node*2654435761 + 1*97 + e.b*40503) % 2147483647)
                           + 2147483647) % 2147483647, e.b) = 1),
            w2 AS (SELECT f.start, e.b AS node FROM w1 f JOIN e ON e.a = f.node
               QUALIFY row_number() OVER (PARTITION BY f.start
                 ORDER BY (((f.node*2654435761 + 2*97 + e.b*40503) % 2147483647)
                           + 2147483647) % 2147483647, e.b) = 1),
            w3 AS (SELECT f.start, e.b AS node FROM w2 f JOIN e ON e.a = f.node
               QUALIFY row_number() OVER (PARTITION BY f.start
                 ORDER BY (((f.node*2654435761 + 3*97 + e.b*40503) % 2147483647)
                           + 2147483647) % 2147483647, e.b) = 1),
            w4 AS (SELECT f.start, e.b AS node FROM w3 f JOIN e ON e.a = f.node
               QUALIFY row_number() OVER (PARTITION BY f.start
                 ORDER BY (((f.node*2654435761 + 4*97 + e.b*40503) % 2147483647)
                           + 2147483647) % 2147483647, e.b) = 1)
            SELECT start, CAST(step AS BIGINT) AS step, node FROM (
              SELECT start, 0 AS step, node FROM w0
              UNION ALL SELECT start, 1, node FROM w1
              UNION ALL SELECT start, 2, node FROM w2
              UNION ALL SELECT start, 3, node FROM w3
              UNION ALL SELECT start, 4, node FROM w4)
            ORDER BY start, step
        """,
        "suppliers_bfs_hops": """
            WITH RECURSIVE e AS (
              SELECT s_suppkey AS a, s_suppkey - (s_suppkey % 7) AS b FROM supplier
              UNION ALL
              SELECT s_suppkey - (s_suppkey % 7), s_suppkey FROM supplier
              UNION ALL
              SELECT s_suppkey, s_suppkey - 1 FROM supplier WHERE s_suppkey % 10 = 0
              UNION ALL
              SELECT s_suppkey - 1, s_suppkey FROM supplier WHERE s_suppkey % 10 = 0
            ),
            walk(node, d) AS (
              SELECT DISTINCT s_suppkey AS node, 0 AS d FROM supplier
              WHERE s_suppkey % 40 = 0
              UNION
              SELECT e.b, walk.d + 1 FROM walk JOIN e ON e.a = walk.node
              WHERE walk.d < 64
            )
            SELECT node, CAST(MIN(d) AS BIGINT) AS dist
            FROM walk GROUP BY node
        """,
        # simplify oracle: the zigzag corpus is built so DP keeps
        # EXACTLY the 4 integer-coordinate breakpoints (see
        # queries.lines_simplify) — enumerable in closed form; quanta
        # are exact BIGINT products of integer degrees
        "lines_simplify": """
            WITH b AS (
              SELECT s_suppkey,
                     (s_suppkey * 37) % 300 - 180 AS x0,
                     (s_suppkey * 53) % 160 - 85 AS y0,
                     1 + s_suppkey % 5 AS dy1,
                     -(1 + (s_suppkey * 7) % 5) AS dy2,
                     1 + (s_suppkey * 11) % 5 AS dy3
              FROM supplier)
            SELECT s_suppkey, i AS seq,
                   (x0 + 8 * i) * 10000000 AS x_q,
                   (y0 + CASE i WHEN 0 THEN 0 WHEN 1 THEN dy1
                                WHEN 2 THEN dy1 + dy2
                                ELSE dy1 + dy2 + dy3 END) * 10000000 AS y_q
            FROM b, (SELECT UNNEST(range(0, 4)) AS i)
        """,
        # NB: every float literal is cast to DOUBLE — DuckDB otherwise
        # types them DECIMAL and evaluates exactly, which disagrees
        # with numpy's IEEE float64 one quantum either side of a
        # representation boundary (e.g. -9.995 * 1e7)
        "tri_geometry_measures": """
            WITH tri AS (
              SELECT s_suppkey,
                CAST(trunc((CAST(-180.0 AS DOUBLE) + (s_suppkey * 37) % 300) * CAST(10000000.0 AS DOUBLE)) AS BIGINT) AS qxa,
                CAST(trunc((CAST(-85.0 AS DOUBLE) + (s_suppkey * 53) % 160) * CAST(10000000.0 AS DOUBLE)) AS BIGINT) AS qya,
                CAST(trunc((CAST(-180.0 AS DOUBLE) + (s_suppkey * 37) % 300 + CAST(3.0 AS DOUBLE) + (s_suppkey % 7) * CAST(2.0 AS DOUBLE) + CAST(0.005 AS DOUBLE)) * CAST(10000000.0 AS DOUBLE)) AS BIGINT) AS qxb,
                CAST(trunc((CAST(-85.0 AS DOUBLE) + (s_suppkey * 53) % 160 + CAST(1.0 AS DOUBLE) + (s_suppkey % 3) * CAST(1.5 AS DOUBLE)) * CAST(10000000.0 AS DOUBLE)) AS BIGINT) AS qyb,
                CAST(trunc((CAST(-180.0 AS DOUBLE) + (s_suppkey * 37) % 300 + CAST(1.0 AS DOUBLE) + (s_suppkey % 5) * CAST(1.0 AS DOUBLE)) * CAST(10000000.0 AS DOUBLE)) AS BIGINT) AS qxc,
                CAST(trunc((CAST(-85.0 AS DOUBLE) + (s_suppkey * 53) % 160 + CAST(2.5 AS DOUBLE) + (s_suppkey % 11) * CAST(0.5 AS DOUBLE) + CAST(0.005 AS DOUBLE)) * CAST(10000000.0 AS DOUBLE)) AS BIGINT) AS qyc
              FROM supplier)
            SELECT s_suppkey, CAST(4 AS BIGINT) AS n_vertices,
                   (qxb - qxa) * (qyc - qya) - (qxc - qxa) * (qyb - qya) AS area2_q,
                   abs(qxb - qxa) + abs(qyb - qya) + abs(qxc - qxb)
                   + abs(qyc - qyb) + abs(qxa - qxc) + abs(qya - qyc) AS perim_mh_q
            FROM tri
        """,
        "docs_exact_dedup": """
            SELECT doc_id, lang, source FROM documents
            QUALIFY row_number() OVER (PARTITION BY lang, source ORDER BY doc_id) = 1
        """,
        "docs_token_stats": r"""
            SELECT doc_id, CAST(len(string_split_regex(text, '\s+')) AS BIGINT) AS n_tokens_ws
            FROM documents
        """,
        "docs_quality": r"""
            SELECT doc_id,
                   CAST(length(text) AS BIGINT) AS n_chars_q,
                   CAST(len(string_split_regex(text, '\s+')) AS BIGINT) AS n_tokens_ws,
                   CAST(length(text) AS DOUBLE)
                     / GREATEST(len(string_split_regex(text, '\s+')), 1) AS mean_token_len
            FROM documents
        """,
        # mosaic layout oracle: per-tile counts from the CRC centroid
        # CTE; n capped at 16, 4-wide row-major grid, 32px cells
        "images_mosaic": f"""
            {_img_pts_cte(300)}
            SELECT {_tile_x('lon', 4)} AS tile_x, {_tile_y('lat', 4)} AS tile_y,
                   LEAST(COUNT(*), 16) AS n_images,
                   32 * LEAST(LEAST(COUNT(*), 16), 4) AS mosaic_w,
                   32 * CAST(ceil(LEAST(COUNT(*), 16) / 4.0) AS BIGINT) AS mosaic_h
            FROM pts GROUP BY tile_x, tile_y
        """,
        "images_tile_counts": f"""
            {_img_pts_cte(300)}
            SELECT {_tile_x('lon', 4)} AS tile_x, {_tile_y('lat', 4)} AS tile_y,
                   COUNT(*) AS n_images
            FROM pts GROUP BY tile_x, tile_y
        """,
        "images_in_rects": f"""
            {_img_pts_cte(300)}
            SELECT 'img' || lpad(CAST(image_idx AS VARCHAR), 12, '0') AS image_id,
                   s_suppkey AS polygon_id
            FROM pts, supplier
            WHERE lon >= (-180.0 + (s_suppkey * 37) % 300)
              AND lon <= (-180.0 + (s_suppkey * 37) % 300 + 5.0 + (s_suppkey % 7) * 3.0 + 0.005)
              AND lat >= (-85.0 + (s_suppkey * 53) % 160)
              AND lat <= (-85.0 + (s_suppkey * 53) % 160 + 4.0 + (s_suppkey % 5) * 3.0 + 0.005)
        """,
        # image footprints (centroid +- hash-seeded half-extents,
        # clamped) x supplier rects: closed-interval overlap, same
        # convention as rects_overlap_join
        "images_footprint_overlap": f"""
            {_img_pts_cte(300)}
            , fp AS (
                SELECT image_idx,
                       CASE WHEN hot THEN 10.0 + u1 * 0.2
                            ELSE -180.0 + u1 * 360.0 END AS lon,
                       CASE WHEN hot THEN 50.0 + u2 * 0.2
                            ELSE -85.0 + u2 * 170.0 END AS lat,
                       0.25 + (hsh % 7) * 0.25 AS dw,
                       0.25 + (hsh % 5) * 0.25 AS dh
                FROM cent)
            SELECT image_idx, s_suppkey
            FROM fp, supplier
            WHERE GREATEST(lon - dw, -179.9)
                    <= (-180.0 + (s_suppkey * 37) % 300 + 5.0
                        + (s_suppkey % 7) * 3.0 + 0.005)
              AND LEAST(lon + dw, 179.9)
                    >= (-180.0 + (s_suppkey * 37) % 300)
              AND GREATEST(lat - dh, -84.9)
                    <= (-85.0 + (s_suppkey * 53) % 160 + 4.0
                        + (s_suppkey % 5) * 3.0 + 0.005)
              AND LEAST(lat + dh, 84.9)
                    >= (-85.0 + (s_suppkey * 53) % 160)
        """,
        # kNN customers -> image centroids on the S2 shuffle path; the
        # oracle recomputes the CRC centroids (same CTE) + haversine
        "images_knn_s2": f"""
            {_img_pts_cte(300)}
            SELECT custkey, CAST(rnk AS INTEGER) AS rank, image_idx FROM (
                SELECT c_custkey AS custkey, image_idx,
                       row_number() OVER (
                           PARTITION BY c_custkey
                           ORDER BY 2.0 * 6371008.8 * asin(sqrt(
                               pow(sin((radians(lat) - radians({_LAT})) / 2.0), 2)
                               + cos(radians({_LAT})) * cos(radians(lat))
                               * pow(sin((radians(lon) - radians({_LON})) / 2.0), 2)
                           )), image_idx
                       ) AS rnk
                FROM customer, pts
                WHERE c_custkey <= 20
            ) WHERE rnk <= 3
        """,
        # FNV-1a 64-bit document fingerprint as SQL: recursive CTE over
        # the utf8 BYTES (hex(encode(text)) + strpos nibble decode) in
        # HUGEINT mod 2^64 — bit-identical to functions/text.py
        # fingerprint64 (asserted by tools/check_oracles)
        "docs_repetition_stats": """
            WITH w AS (SELECT doc_id, u.w
                       FROM documents,
                            UNNEST(string_split(text, ' ')) AS u(w)),
            c AS (SELECT doc_id, w, COUNT(*) AS cnt
                  FROM w GROUP BY doc_id, w),
            a AS (SELECT doc_id,
                      CAST(SUM(cnt) AS BIGINT) AS n_words,
                      CAST(COUNT(*) AS BIGINT) AS n_distinct,
                      CAST(SUM(CASE WHEN cnt > 1 THEN cnt ELSE 0 END)
                           AS BIGINT) AS dup_words,
                      CAST(SUM(CASE WHEN cnt > 1 THEN cnt * length(w)
                               ELSE 0 END) AS BIGINT) AS dup_chars
                  FROM c GROUP BY doc_id),
            t AS (SELECT doc_id, cnt * length(w) AS tc,
                      ROW_NUMBER() OVER (PARTITION BY doc_id
                                         ORDER BY cnt DESC, w ASC) AS rn
                  FROM c)
            SELECT a.doc_id, a.n_words, a.n_distinct, a.dup_words,
                   a.dup_chars, CAST(t.tc AS BIGINT) AS top_chars
            FROM a JOIN t ON t.doc_id = a.doc_id AND t.rn = 1
        """,
        "docs_boilerplate_prune": """
            WITH w AS (SELECT doc_id, u.w
                       FROM documents,
                            UNNEST(string_split(text, ' ')) AS u(w)),
            df AS (SELECT w, COUNT(DISTINCT doc_id) AS df
                   FROM w GROUP BY w),
            nd AS (SELECT COUNT(*) AS n FROM documents),
            hot AS (SELECT COALESCE(list(w), []) AS hl
                    FROM df, nd WHERE df * 100 >= 77 * nd.n)
            SELECT d.doc_id,
                   CAST(len(string_split(d.text, ' '))
                        - len(list_filter(string_split(d.text, ' '),
                                          x -> NOT list_contains(h.hl, x)))
                        AS BIGINT) AS n_removed,
                   COALESCE(array_to_string(
                       list_filter(string_split(d.text, ' '),
                                   x -> NOT list_contains(h.hl, x)),
                       ' '), '') AS clean
            FROM documents d CROSS JOIN hot h
        """,
        "customers_areal_value": """
            WITH z AS (SELECT
                    ((s_suppkey * 37) % 300) * 100 AS w,
                    ((s_suppkey * 53) % 160) * 100 AS s,
                    ((s_suppkey * 37) % 300) * 100
                        + 500 + (s_suppkey % 7) * 300 AS e,
                    ((s_suppkey * 53) % 160) * 100
                        + 400 + (s_suppkey % 5) * 300 AS n,
                    CAST(round(s_acctbal * 100) AS BIGINT) AS v
                FROM supplier),
            t AS (SELECT c_custkey,
                    (c_custkey * 7919) % 36000 AS w,
                    (c_custkey * 104729) % 17000 AS s,
                    (c_custkey * 7919) % 36000
                        + 50 + (c_custkey % 5) * 30 AS e,
                    (c_custkey * 104729) % 17000
                        + 40 + (c_custkey % 7) * 20 AS n
                FROM customer)
            SELECT t.c_custkey AS custkey,
                   CAST(SUM(z.v
                        * (LEAST(t.e, z.e) - GREATEST(t.w, z.w))
                        * (LEAST(t.n, z.n) - GREATEST(t.s, z.s)))
                        AS BIGINT) AS val_area,
                   CAST(SUM((LEAST(t.e, z.e) - GREATEST(t.w, z.w))
                        * (LEAST(t.n, z.n) - GREATEST(t.s, z.s)))
                        AS BIGINT) AS inter_area
            FROM t JOIN z
              ON GREATEST(t.w, z.w) < LEAST(t.e, z.e)
             AND GREATEST(t.s, z.s) < LEAST(t.n, z.n)
            GROUP BY 1
        """,
        "suppliers_union_area": """
            WITH r AS (SELECT
                    CAST(s_nationkey AS BIGINT) AS g,
                    ((s_suppkey * 37) % 300) * 100 AS w,
                    ((s_suppkey * 53) % 160) * 100 AS s,
                    ((s_suppkey * 37) % 300) * 100
                        + 500 + (s_suppkey % 7) * 300 AS e,
                    ((s_suppkey * 53) % 160) * 100
                        + 400 + (s_suppkey % 5) * 300 AS n
                FROM supplier),
            xs AS (SELECT DISTINCT g, x FROM
                       (SELECT g, w AS x FROM r
                        UNION SELECT g, e FROM r)),
            st AS (SELECT g, x AS sx,
                       LEAD(x) OVER (PARTITION BY g ORDER BY x) AS ex
                   FROM xs),
            sr AS (SELECT st.g, st.sx, st.ex, r.s, r.n
                   FROM st JOIN r ON r.g = st.g AND r.w <= st.sx
                                 AND r.e >= st.ex
                   WHERE st.ex IS NOT NULL),
            fl AS (SELECT g, sx, ex, s, n,
                       CASE WHEN s > COALESCE(
                           MAX(n) OVER (PARTITION BY g, sx ORDER BY s, n
                               ROWS BETWEEN UNBOUNDED PRECEDING
                               AND 1 PRECEDING),
                           -4611686018427387904) THEN 1 ELSE 0 END
                           AS isl_new
                   FROM sr),
            il AS (SELECT g, sx, ex, s, n,
                       SUM(isl_new) OVER (PARTITION BY g, sx
                                          ORDER BY s, n) AS isl
                   FROM fl),
            ia AS (SELECT g, sx, ex, isl, MAX(n) - MIN(s) AS cov
                   FROM il GROUP BY g, sx, ex, isl)
            SELECT g AS nationkey,
                   CAST(SUM(cov * (ex - sx)) AS BIGINT) AS union_area
            FROM ia GROUP BY g
        """,
        "events_trajectory": """
            WITH e AS (SELECT CAST(user_id AS BIGINT) AS user_id,
                    (CAST(epoch_us(ts) AS BIGINT) // 1000000)
                        * 16777216 + event_id AS o,
                    (event_id * 7919) % 20000 AS x,
                    (event_id * 104729) % 17000 AS y
                FROM events),
            d AS (SELECT user_id, o, x, y,
                    LAG(x) OVER (PARTITION BY user_id ORDER BY o) AS px,
                    LAG(y) OVER (PARTITION BY user_id ORDER BY o) AS py
                FROM e)
            SELECT user_id,
                   CAST(COUNT(*) AS BIGINT) AS n_points,
                   CAST(SUM(CASE WHEN px IS NOT NULL
                            THEN abs(x - px) + abs(y - py)
                            ELSE 0 END) AS BIGINT) AS path_l1,
                   CAST(abs(first(x ORDER BY o DESC)
                            - first(x ORDER BY o ASC))
                        + abs(first(y ORDER BY o DESC)
                              - first(y ORDER BY o ASC))
                        AS BIGINT) AS net_l1
            FROM d GROUP BY user_id
        """,
        "docs_stratified_split": """
            WITH h AS (SELECT doc_id,
                    CAST(substr(source, 4) AS BIGINT) AS src,
                    ((doc_id % 1000003) * 2654435761) % 4294967296 AS hv
                FROM documents),
            t AS (SELECT src,
                    percentile_disc(0.125) WITHIN GROUP (ORDER BY hv)
                        AS thr
                  FROM h GROUP BY src)
            SELECT h.doc_id, h.src,
                   CAST(h.hv <= t.thr AS BIGINT) AS is_val
            FROM h JOIN t USING (src)
        """,
        "customers_kernel_interp": """
            WITH t AS (SELECT c_custkey,
                    (c_custkey * 7919) % 36000 AS x,
                    (c_custkey * 104729) % 17000 AS y
                FROM customer),
            s AS (SELECT CAST(round(s_acctbal * 100) AS BIGINT) AS v,
                    ((s_suppkey * 37) % 300) * 100 AS x,
                    ((s_suppkey * 53) % 160) * 100 AS y
                FROM supplier)
            SELECT t.c_custkey AS custkey,
                   CAST(SUM(s.v * (4000000
                        - (t.x - s.x) * (t.x - s.x)
                        - (t.y - s.y) * (t.y - s.y))) AS BIGINT) AS num,
                   CAST(SUM(4000000
                        - (t.x - s.x) * (t.x - s.x)
                        - (t.y - s.y) * (t.y - s.y)) AS BIGINT) AS den
            FROM t JOIN s
              ON (t.x - s.x) * (t.x - s.x)
                 + (t.y - s.y) * (t.y - s.y) < 4000000
            GROUP BY 1
        """,
        "docs_repeated_spans": """
            WITH tok AS (SELECT doc_id, string_split(text, ' ') AS w
                         FROM documents),
            pos AS (SELECT doc_id, w,
                        unnest(generate_series(1,
                            greatest(len(w) - 4, 0))) AS i
                    FROM tok),
            g AS (SELECT doc_id, i,
                      array_to_string(w[i:i+4], ' ') AS gram
                  FROM pos),
            hot AS (SELECT gram FROM g GROUP BY gram
                    HAVING COUNT(DISTINCT doc_id) >= 2),
            hp AS (SELECT g.doc_id, g.i - 1 AS p
                   FROM g JOIN hot USING (gram)),
            fl AS (SELECT doc_id, p,
                       CASE WHEN p > COALESCE(
                           LAG(p) OVER (PARTITION BY doc_id ORDER BY p),
                           -1000000) + 5 THEN 1 ELSE 0 END AS st
                   FROM hp),
            il AS (SELECT doc_id, p,
                       SUM(st) OVER (PARTITION BY doc_id ORDER BY p)
                           AS isl
                   FROM fl)
            SELECT doc_id, CAST(MIN(p) AS BIGINT) AS span_start,
                   CAST(MAX(p) + 5 AS BIGINT) AS span_end
            FROM il GROUP BY doc_id, isl
        """,
        "docs_top_bigrams": """
            WITH tok AS (SELECT doc_id, string_split(text, ' ') AS w
                         FROM documents),
            pos AS (SELECT doc_id, w,
                        unnest(generate_series(1,
                            greatest(len(w) - 1, 0))) AS i
                    FROM tok),
            b AS (SELECT w[i] AS w1, w[i+1] AS w2 FROM pos),
            c AS (SELECT w1, w2, CAST(COUNT(*) AS BIGINT) AS tf
                  FROM b GROUP BY 1, 2),
            r AS (SELECT *, ROW_NUMBER() OVER
                      (ORDER BY tf DESC, w1, w2) AS rn FROM c)
            SELECT w1, w2, tf FROM r WHERE rn <= 40
        """,
        "lineitem_profile": """
            SELECT 'l_orderkey' AS column, CAST(COUNT(*) AS BIGINT) AS n_rows,
                   CAST(COUNT(*) - COUNT(l_orderkey) AS BIGINT) AS n_nulls,
                   CAST(COUNT(DISTINCT l_orderkey) AS BIGINT) AS n_distinct,
                   COALESCE(MIN(CAST(l_orderkey AS VARCHAR)), '') AS min_v,
                   COALESCE(MAX(CAST(l_orderkey AS VARCHAR)), '') AS max_v
            FROM lineitem
            UNION ALL
            SELECT 'l_linenumber' AS column, CAST(COUNT(*) AS BIGINT) AS n_rows,
                   CAST(COUNT(*) - COUNT(l_linenumber) AS BIGINT) AS n_nulls,
                   CAST(COUNT(DISTINCT l_linenumber) AS BIGINT) AS n_distinct,
                   COALESCE(MIN(CAST(l_linenumber AS VARCHAR)), '') AS min_v,
                   COALESCE(MAX(CAST(l_linenumber AS VARCHAR)), '') AS max_v
            FROM lineitem
            UNION ALL
            SELECT 'l_returnflag' AS column, CAST(COUNT(*) AS BIGINT) AS n_rows,
                   CAST(COUNT(*) - COUNT(l_returnflag) AS BIGINT) AS n_nulls,
                   CAST(COUNT(DISTINCT l_returnflag) AS BIGINT) AS n_distinct,
                   COALESCE(MIN(CAST(l_returnflag AS VARCHAR)), '') AS min_v,
                   COALESCE(MAX(CAST(l_returnflag AS VARCHAR)), '') AS max_v
            FROM lineitem
            UNION ALL
            SELECT 'l_linestatus' AS column, CAST(COUNT(*) AS BIGINT) AS n_rows,
                   CAST(COUNT(*) - COUNT(l_linestatus) AS BIGINT) AS n_nulls,
                   CAST(COUNT(DISTINCT l_linestatus) AS BIGINT) AS n_distinct,
                   COALESCE(MIN(CAST(l_linestatus AS VARCHAR)), '') AS min_v,
                   COALESCE(MAX(CAST(l_linestatus AS VARCHAR)), '') AS max_v
            FROM lineitem
        """,
        "docs_pii_scrub": """
            WITH d0 AS (
                SELECT doc_id,
                       text || ' contact u' || CAST(doc_id AS VARCHAR)
                       || '@ex' || CAST(doc_id % 7 AS VARCHAR) || '.com'
                       || CASE WHEN doc_id % 3 <> 0 THEN
                              ' or call '
                              || CAST(100 + doc_id % 900 AS VARCHAR) || '-'
                              || CAST(100 + (doc_id * 7) % 900 AS VARCHAR)
                              || '-'
                              || CAST(1000 + doc_id % 9000 AS VARCHAR)
                          ELSE '' END
                       || CASE WHEN doc_id % 2 = 0 THEN
                              ' from 10.'
                              || CAST(doc_id % 256 AS VARCHAR) || '.0.'
                              || CAST(doc_id % 100 AS VARCHAR)
                          ELSE '' END AS t
                FROM documents),
            s1 AS (SELECT doc_id,
                       len(string_split_regex(t,
                           '[A-Za-z0-9._%+\\-]+@[A-Za-z0-9.\\-]+\\.[A-Za-z]{2,}')) - 1
                           AS n_email,
                       regexp_replace(t,
                           '[A-Za-z0-9._%+\\-]+@[A-Za-z0-9.\\-]+\\.[A-Za-z]{2,}',
                           '<EMAIL>', 'g') AS t1
                   FROM d0),
            s2 AS (SELECT doc_id, n_email,
                       len(string_split_regex(t1,
                           '\\b\\d{3}[-. ]\\d{3}[-. ]\\d{4}\\b')) - 1 AS n_phone,
                       regexp_replace(t1,
                           '\\b\\d{3}[-. ]\\d{3}[-. ]\\d{4}\\b',
                           '<PHONE>', 'g') AS t2
                   FROM s1),
            s3 AS (SELECT doc_id, n_email, n_phone,
                       len(string_split_regex(t2,
                           '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b')) - 1
                           AS n_ip,
                       regexp_replace(t2,
                           '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b',
                           '<IP>', 'g') AS clean
                   FROM s2)
            SELECT doc_id, n_email, n_phone, n_ip, clean FROM s3
        """,
        "docs_fingerprint": """
            WITH RECURSIVE b AS (
                SELECT doc_id, hex(encode(text)) AS hx,
                       octet_length(encode(text)) AS nb
                FROM documents
            ),
            fnv AS (
                SELECT doc_id, hx, nb, 0 AS j,
                       CAST(14695981039346656037 AS HUGEINT) AS h
                FROM b
                UNION ALL
                SELECT doc_id, hx, nb, j + 1,
                    (xor(h, CAST(
                        strpos('123456789ABCDEF', substr(hx, 2*j + 1, 1)) * 16 +
                        strpos('123456789ABCDEF', substr(hx, 2*j + 2, 1)) AS HUGEINT))
                     * 1099511628211) % 18446744073709551616
                FROM fnv WHERE j < nb
            )
            SELECT doc_id,
                   CAST(CASE WHEN h >= 9223372036854775808
                             THEN h - 18446744073709551616
                             ELSE h END AS BIGINT) AS fingerprint
            FROM fnv WHERE j = nb
        """,
        # langid oracle: the classifier is deterministic RE2 marker
        # counting (functions/text.py LangIdFn) and DuckDB's regexp_*
        # are RE2 too, so \b / \s+ semantics agree exactly; both sides
        # compute score = hits / max(tokens, 1) in float64 (IEEE
        # division is bit-deterministic), ties break toward the first
        # language in _LANG_MARKERS order
        "docs_langid": r"""
            WITH sc AS (
              SELECT doc_id,
                greatest(len(regexp_split_to_array(text, '\s+')), 1)::DOUBLE AS nt,
                len(regexp_extract_all(text, '\b(?:the|and|of|to|is|that|for|with)\b'))::DOUBLE AS h_en,
                len(regexp_extract_all(text, '\b(?:el|la|de|que|y|los|las|una)\b'))::DOUBLE AS h_es,
                len(regexp_extract_all(text, '\b(?:le|la|les|des|et|que|une|est)\b'))::DOUBLE AS h_fr,
                len(regexp_extract_all(text, '\b(?:der|die|das|und|ist|nicht|ein|mit)\b'))::DOUBLE AS h_de,
                len(regexp_extract_all(text, '(?:的|是|了|在|我|有|和|不)'))::DOUBLE AS h_zh
              FROM documents
            ), ranked AS (
              SELECT doc_id, lang, score,
                     row_number() OVER (PARTITION BY doc_id
                                        ORDER BY score DESC, ord ASC) AS rn
              FROM (
                SELECT doc_id, u.lang, u.ord,
                  CASE u.lang WHEN 'en' THEN h_en/nt WHEN 'es' THEN h_es/nt
                              WHEN 'fr' THEN h_fr/nt WHEN 'de' THEN h_de/nt
                              ELSE h_zh/nt END AS score
                FROM sc, (VALUES ('en',1),('es',2),('fr',3),('de',4),('zh',5)) u(lang, ord)
              )
            )
            SELECT doc_id, CASE WHEN score > 0 THEN lang ELSE 'und' END AS lang_pred,
                   score AS lang_conf
            FROM ranked WHERE rn = 1
        """,
        # vocabulary oracle: same RE2 \s+ tokenization on both sides;
        # tf/df are exact integer counts, ties at the k boundary break
        # on (df DESC, term ASC) in both engines
        "docs_tfidf_top": r"""
            WITH t AS (
              SELECT doc_id,
                     unnest(regexp_split_to_array(text, '\s+')) AS term
              FROM documents
            ),
            tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM t
                   WHERE term <> '' GROUP BY doc_id, term),
            df AS (SELECT term, COUNT(*) AS df FROM tf GROUP BY term),
            r AS (SELECT tf.doc_id, tf.term, tf.tf, df.df,
                         ROW_NUMBER() OVER (PARTITION BY tf.doc_id
                             ORDER BY tf.tf DESC, df.df ASC,
                                      tf.term ASC) AS rnk
                  FROM tf JOIN df USING (term))
            SELECT doc_id, CAST(rnk AS INTEGER) AS rank, term, tf, df
            FROM r WHERE rnk <= 3
        """,
        "docs_top_terms": r"""
            WITH t AS (
              SELECT doc_id,
                     unnest(regexp_split_to_array(text, '\s+')) AS term
              FROM documents
            )
            SELECT term, COUNT(*) AS tf, COUNT(DISTINCT doc_id) AS df
            FROM t WHERE term <> ''
            GROUP BY term ORDER BY df DESC, term ASC LIMIT 50
        """,
        "orders_digest_by_priority": """
            WITH h1 AS (
              SELECT o_orderpriority AS k,
                     ((o_orderkey % 4294967296) * 2654435761
                      + (o_orderkey // 4294967296) * 40503)
                     % 4294967296 AS h
              FROM orders
            ),
            h2 AS (SELECT k, xor(h, h // 65536) AS h FROM h1),
            h3 AS (SELECT k, CAST((CAST(h AS HUGEINT) * 2246822519)
                                  % 4294967296 AS BIGINT) AS h FROM h2),
            hf AS (SELECT k, xor(h, h // 8192) AS h FROM h3),
            agg AS (
              SELECT k, COUNT(*) AS n_rows,
                     CAST(SUM(CAST(h AS HUGEINT))
                          % 18446744073709551616 AS HUGEINT) AS m,
                     bit_xor(h) AS digest_xor
              FROM hf GROUP BY k
            )
            SELECT k AS o_orderpriority, n_rows,
                   CAST(CASE WHEN m >= 9223372036854775808
                             THEN m - 18446744073709551616
                             ELSE m END AS BIGINT) AS digest_sum,
                   digest_xor
            FROM agg
        """,
        "docs_jaccard_pairs": r"""
            WITH tok AS (
              SELECT doc_id,
                     unnest(regexp_split_to_array(text, '\s+')) AS term
              FROM documents WHERE doc_id % 10 = 0
            ),
            T AS (SELECT DISTINCT doc_id, term FROM tok WHERE term <> ''),
            S AS (SELECT doc_id, COUNT(*) AS n FROM T GROUP BY doc_id),
            I AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                         COUNT(*) AS inter
                  FROM T a JOIN T b USING (term)
                  WHERE a.doc_id < b.doc_id
                  GROUP BY a.doc_id, b.doc_id)
            SELECT doc_a, doc_b, inter, sa.n AS size_a, sb.n AS size_b
            FROM I JOIN S sa ON sa.doc_id = I.doc_a
                   JOIN S sb ON sb.doc_id = I.doc_b
            WHERE inter * 10 >= 9 * (sa.n + sb.n - inter)
        """,
        "docs_chunk_spans": """
            WITH k AS (SELECT doc_id, n_chars,
                          CASE WHEN n_chars <= 500 THEN 1
                               ELSE (n_chars - 500 + 399) // 400 + 1
                          END AS nk
                       FROM documents),
            s AS (SELECT doc_id, n_chars,
                         unnest(generate_series(0, nk - 1)) AS j FROM k)
            SELECT doc_id, COUNT(*) AS n_chunks,
                   CAST(SUM(LEAST(j * 400 + 500, n_chars) - j * 400)
                        AS BIGINT) AS covered_units
            FROM s GROUP BY doc_id
        """,
        "docs_dup_clusters": r"""
            WITH RECURSIVE tok AS (
              SELECT doc_id,
                     unnest(regexp_split_to_array(text, '\s+')) AS term
              FROM documents WHERE doc_id % 10 = 0),
            T AS (SELECT DISTINCT doc_id, term FROM tok WHERE term <> ''),
            S AS (SELECT doc_id, COUNT(*) AS n FROM T GROUP BY doc_id),
            I AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                         COUNT(*) AS inter
                  FROM T a JOIN T b USING (term)
                  WHERE a.doc_id < b.doc_id
                  GROUP BY a.doc_id, b.doc_id),
            P AS (SELECT doc_a, doc_b
                  FROM I JOIN S sa ON sa.doc_id = I.doc_a
                         JOIN S sb ON sb.doc_id = I.doc_b
                  WHERE inter * 10 >= 9 * (sa.n + sb.n - inter)),
            E AS (SELECT doc_a AS u, doc_b AS v FROM P
                  UNION ALL SELECT doc_b, doc_a FROM P),
            reach(src, node) AS (
              SELECT u, u FROM E
              UNION
              SELECT r.src, e.v FROM reach r JOIN E e ON e.u = r.node)
            SELECT src AS doc_id, MIN(node) AS canonical
            FROM reach GROUP BY src
        """,
        "docs_inverted_lookup": r"""
            WITH tok AS (
              SELECT doc_id,
                     unnest(regexp_split_to_array(text, '\s+')) AS term
              FROM documents
            )
            SELECT term, doc_id, COUNT(*) AS tf
            FROM tok WHERE term IN ('hash', 'join', 'window')
            GROUP BY term, doc_id
        """,
        "docs_bm25_topk": r"""
            WITH tok AS (
              SELECT doc_id,
                     unnest(regexp_split_to_array(text, '\s+')) AS term
              FROM documents
            ),
            t AS (SELECT doc_id, term FROM tok WHERE term <> ''),
            dl AS (SELECT doc_id, COUNT(*) AS dl FROM t GROUP BY doc_id),
            st AS (SELECT (SELECT COUNT(*) FROM documents) AS n,
                          (SELECT CAST(SUM(dl) AS BIGINT) FROM dl)
                              AS total_len),
            q(term) AS (VALUES ('hash'), ('join'), ('scan'), ('window')),
            tf AS (SELECT t.doc_id, t.term, COUNT(*) AS tf
                   FROM t JOIN q USING (term) GROUP BY t.doc_id, t.term),
            df AS (SELECT term, COUNT(*) AS df FROM tf GROUP BY term),
            scored AS (
              SELECT tf.term, tf.doc_id,
                     CAST(tf.tf AS BIGINT) AS tf,
                     CAST(dl.dl AS BIGINT) AS dl,
                     ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1)
                       * (tf.tf * 2.2)
                       / (tf.tf + 1.2 * (1 - 0.75 + 0.75
                          * ((dl.dl * st.n) / CAST(st.total_len AS DOUBLE))))
                         AS score
              FROM tf JOIN dl USING (doc_id) JOIN df USING (term), st
            )
            SELECT term, rank, doc_id, tf, dl FROM (
              SELECT *, CAST(ROW_NUMBER() OVER (
                  PARTITION BY term ORDER BY score DESC, doc_id
              ) AS BIGINT) AS rank FROM scored
            ) WHERE rank <= 10
        """,
        # docs_minhash_pairs / docs_simhash_pairs / embeddings_dup_pairs /
        # images_decode_stats|resize / audio / video:
        # no SQL equivalent (hash sketches, procedural media payloads)
        # -> rows-only checks
        "embeddings_topk": """
            SELECT query_id, CAST(rnk AS INTEGER) AS rank, vec_id FROM (
                SELECT qv.vec_id AS query_id, e.vec_id AS vec_id,
                       row_number() OVER (
                           PARTITION BY qv.vec_id
                           ORDER BY list_cosine_similarity(qv.embedding, e.embedding) DESC,
                                    e.vec_id
                       ) AS rnk
                FROM embeddings e, (SELECT * FROM embeddings WHERE vec_id < 5) qv
            ) WHERE rnk <= 5
        """,
        "embeddings_topk_filtered": """
            SELECT query_id, CAST(rnk AS INTEGER) AS rank, vec_id FROM (
                SELECT qv.vec_id AS query_id, e.vec_id AS vec_id,
                       row_number() OVER (
                           PARTITION BY qv.vec_id
                           ORDER BY list_cosine_similarity(qv.embedding, e.embedding) DESC,
                                    e.vec_id
                       ) AS rnk
                FROM (SELECT * FROM embeddings WHERE label = 1) e,
                     (SELECT * FROM embeddings WHERE vec_id < 5) qv
            ) WHERE rnk <= 5
        """,
        "parts_soundex_blocks": """
            WITH w AS (SELECT p_partkey AS id,
                              regexp_replace(p_name, ' .*$', '') AS word
                       FROM part),
            u AS (SELECT id, word,
                         upper(regexp_replace(word, '[^A-Za-z]', '', 'g'))
                             AS uw FROM w),
            s AS (SELECT id, word, substr(uw, 1, 1) AS f,
                         substr(uw, 1, 1)
                             || translate(substr(uw, 2), 'HW', '') AS body
                  FROM u),
            c AS (SELECT id, word, f,
                         translate(body, 'BFPVCGJKQSXZDTLMNRAEIOUY',
                                   '111122222222334556000000') AS coded
                  FROM s),
            x AS (SELECT id, word, f, i,
                         substr(coded, CAST(i AS INT), 1) AS ch
                  FROM c, unnest(generate_series(1, length(coded)))
                           AS t(i)),
            y AS (SELECT id, word, f, i, ch,
                         lag(ch) OVER (PARTITION BY id ORDER BY i) AS pch
                  FROM x),
            z AS (SELECT id, word, f,
                         string_agg(ch, '' ORDER BY i) AS coll
                  FROM y WHERE pch IS NULL OR ch <> pch
                  GROUP BY id, word, f)
            SELECT f || substr(replace(substr(coll, 2), '0', '')
                               || '000', 1, 3) AS sdx,
                   CAST(COUNT(*) AS BIGINT) AS n_parts,
                   CAST(COUNT(DISTINCT word) AS BIGINT) AS n_distinct
            FROM z GROUP BY 1 ORDER BY sdx
        """,
        "nations_frechet_pairs": """
            WITH RECURSIVE
            seq AS (SELECT c_nationkey AS code,
                           CAST(ROW_NUMBER() OVER (
                               PARTITION BY c_nationkey
                               ORDER BY c_custkey) - 1 AS BIGINT) AS i,
                           (c_custkey * 37) % 3600 - 1800 AS x,
                           (c_custkey * 53) % 1700 - 850 AS y
                    FROM customer
                    QUALIFY ROW_NUMBER() OVER (PARTITION BY c_nationkey
                        ORDER BY c_custkey) <= 12),
            codes AS (SELECT DISTINCT code FROM seq),
            prs AS (SELECT a.code AS ca, b.code AS cb,
                           a.code * 100 + b.code AS pair
                    FROM codes a, codes b WHERE a.code <> b.code),
            sa AS (SELECT pair, i, x, y FROM prs
                   JOIN seq ON seq.code = prs.ca),
            sb AS (SELECT pair, i AS j, x, y FROM prs
                   JOIN seq ON seq.code = prs.cb),
            lens AS (SELECT a.pair, ma, pb FROM
                     (SELECT pair, COUNT(*) AS ma FROM sa GROUP BY pair) a
                     JOIN (SELECT pair, COUNT(*) AS pb FROM sb
                           GROUP BY pair) b USING (pair)),
            dist AS (SELECT sa.pair, i, j,
                            (sa.x-sb.x)*(sa.x-sb.x)
                            + (sa.y-sb.y)*(sa.y-sb.y) AS d
                     FROM sa JOIN sb USING (pair)),
            r(pair, i, j, val, c) AS (
                SELECT pair, 0, 0, d, 1 FROM dist WHERE i = 0 AND j = 0
                UNION ALL
                (WITH w AS (SELECT * FROM r),
                 spawn AS (
                    SELECT DISTINCT w.pair, w.i + 1 AS ni, w.j AS nj
                    FROM w JOIN lens USING (pair)
                    WHERE c = 1 AND w.i + 1 < ma
                    UNION
                    SELECT DISTINCT w.pair, w.i AS ni, w.j + 1 AS nj
                    FROM w JOIN lens USING (pair)
                    WHERE c = 1 AND w.j + 1 < pb),
                 nxt AS (
                    SELECT s.pair, s.ni AS i, s.nj AS j,
                      CASE WHEN s.ni = 0 THEN greatest(d.d, lf.val)
                           WHEN s.nj = 0 THEN greatest(d.d, up.val)
                           ELSE greatest(d.d, least(up.val, lf.val,
                                                    dg.val)) END AS val
                    FROM spawn s
                    JOIN dist d ON d.pair = s.pair AND d.i = s.ni
                                AND d.j = s.nj
                    LEFT JOIN w up ON up.c = 1 AND up.pair = s.pair
                                   AND up.i = s.ni - 1 AND up.j = s.nj
                    LEFT JOIN w lf ON lf.c = 1 AND lf.pair = s.pair
                                   AND lf.i = s.ni AND lf.j = s.nj - 1
                    LEFT JOIN w dg ON dg.c = 0 AND dg.pair = s.pair
                                   AND dg.i = s.ni - 1
                                   AND dg.j = s.nj - 1)
                 SELECT pair, i, j, val, 1 FROM nxt
                 UNION ALL
                 SELECT w.pair, w.i, w.j, w.val, 0
                 FROM w JOIN lens USING (pair)
                 WHERE w.c = 1 AND w.i + w.j < ma + pb - 2))
            SELECT prs.ca AS code_a, prs.cb AS code_b,
                   CAST(r.val AS BIGINT) AS frechet_d2
            FROM r JOIN lens USING (pair) JOIN prs USING (pair)
            WHERE r.c = 1 AND r.i = ma - 1 AND r.j = pb - 1
            ORDER BY code_a, code_b
        """,
        "nations_path_raster": """
            WITH seq AS (SELECT c_nationkey AS code,
                    ROW_NUMBER() OVER (PARTITION BY c_nationkey
                                       ORDER BY c_custkey) AS rnk,
                    (c_custkey * 37) % 3600 - 1800 AS x,
                    (c_custkey * 53) % 1700 - 850 AS y
                 FROM customer
                 QUALIFY rnk <= 12),
            segs AS (SELECT code, x AS x0, y AS y0,
                        LEAD(x) OVER (PARTITION BY code ORDER BY rnk)
                            AS x1,
                        LEAD(y) OVER (PARTITION BY code ORDER BY rnk)
                            AS y1
                     FROM seq QUALIFY x1 IS NOT NULL),
            st AS (SELECT code, x0, y0, x1, y1,
                       greatest(abs(x1 - x0), abs(y1 - y0)) AS steps,
                       greatest(greatest(abs(x1 - x0), abs(y1 - y0)),
                                1) AS dv
                   FROM segs),
            pts AS (SELECT code,
                       x0 + CAST(floor(CAST(t * (x1 - x0) AS DOUBLE)
                                       / dv) AS BIGINT) AS x,
                       y0 + CAST(floor(CAST(t * (y1 - y0) AS DOUBLE)
                                       / dv) AS BIGINT) AS y
                    FROM st, unnest(generate_series(0, steps)) AS u(t)),
            cl AS (SELECT DISTINCT code,
                       (CAST(floor(x / 64.0) AS BIGINT) + 64) * 4096
                       + CAST(floor(y / 64.0) AS BIGINT) + 64 AS packed
                   FROM pts)
            SELECT code, CAST(COUNT(*) AS BIGINT) AS n_cells,
                   CAST(SUM(packed) AS BIGINT) AS cell_checksum
            FROM cl GROUP BY code ORDER BY code
        """,
        "rects_morphology_open": """
            WITH s AS (
              SELECT (s_suppkey*37) % 248 AS a, (s_suppkey*53) % 248 AS b,
                     s_suppkey % 3 + 1 AS sx, (s_suppkey*7) % 3 + 1 AS sy
              FROM supplier),
            p AS (
              SELECT DISTINCT a + i.range AS gx, b + j.range AS gy
              FROM s, range(0, 4) i, range(0, 4) j
              WHERE i.range <= sx AND j.range <= sy),
            e AS (
              SELECT p1.gx, p1.gy
              FROM p p1 JOIN p p2
                ON abs(p2.gx - p1.gx) <= 1 AND abs(p2.gy - p1.gy) <= 1
              GROUP BY p1.gx, p1.gy HAVING COUNT(*) = 9),
            d AS (
              SELECT DISTINCT e.gx + i.range - 1 AS gx,
                              e.gy + j.range - 1 AS gy
              FROM e, range(0, 3) i, range(0, 3) j
              WHERE e.gx + i.range - 1 BETWEEN 0 AND 255
                AND e.gy + j.range - 1 BETWEEN 0 AND 255)
            SELECT gx, gy FROM d ORDER BY gx, gy
        """,
        "docs_rrf_fusion": r"""
            WITH tok AS (
              SELECT doc_id,
                     unnest(regexp_split_to_array(text, '\s+')) AS term
              FROM documents
            ),
            t AS (SELECT doc_id, term FROM tok WHERE term <> ''),
            dl AS (SELECT doc_id, COUNT(*) AS dl FROM t GROUP BY doc_id),
            st AS (SELECT (SELECT COUNT(*) FROM documents) AS n,
                          (SELECT CAST(SUM(dl) AS BIGINT) FROM dl)
                              AS total_len),
            q(term) AS (VALUES ('hash'), ('join'), ('scan'), ('window')),
            tf AS (SELECT t.doc_id, t.term, COUNT(*) AS tf
                   FROM t JOIN q USING (term) GROUP BY t.doc_id, t.term),
            df AS (SELECT term, COUNT(*) AS df FROM tf GROUP BY term),
            scored AS (
              SELECT tf.term, tf.doc_id,
                     ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1)
                       * (tf.tf * 2.2)
                       / (tf.tf + 1.2 * (1 - 0.75 + 0.75
                          * ((dl.dl * st.n)
                             / CAST(st.total_len AS DOUBLE)))) AS score
              FROM tf JOIN dl USING (doc_id) JOIN df USING (term), st
            ),
            ranked AS (
              SELECT term, doc_id, rank FROM (
                SELECT term, doc_id, CAST(ROW_NUMBER() OVER (
                    PARTITION BY term ORDER BY score DESC, doc_id
                ) AS BIGINT) AS rank FROM scored
              ) WHERE rank <= 20),
            fused AS (
              SELECT doc_id,
                     CAST(SUM(1000000000 // (60 + rank)) AS BIGINT)
                         AS rrf_score,
                     CAST(COUNT(*) AS BIGINT) AS n_lists
              FROM ranked GROUP BY doc_id)
            SELECT doc_id, rrf_score, n_lists,
                   CAST(ROW_NUMBER() OVER (
                       ORDER BY rrf_score DESC, doc_id) AS BIGINT)
                       AS fused_rank
            FROM fused ORDER BY rrf_score DESC, doc_id LIMIT 10
        """,
        "docs_source_diversity": """
            WITH c AS (SELECT lang, source,
                              CAST(COUNT(*) AS BIGINT) AS n
                       FROM documents GROUP BY lang, source)
            SELECT lang, CAST(SUM(n) AS BIGINT) AS n_docs,
                   CAST(SUM(n * n) AS BIGINT) AS collision_mass,
                   CAST(COUNT(*) AS BIGINT) AS n_sources
            FROM c GROUP BY lang ORDER BY lang
        """,
        "lineitem_lookup_join": """
            WITH o AS (SELECT o_orderkey,
                              CASE WHEN o_orderkey % 97 = 0
                                   THEN '9-RETAGGED'
                                   ELSE o_orderpriority END AS pr
                       FROM orders)
            SELECT pr AS o_orderpriority,
                   CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(SUM(CAST(round(l_quantity) AS BIGINT))
                        AS BIGINT) AS sum_qty
            FROM lineitem JOIN o ON l_orderkey = o_orderkey
            GROUP BY pr ORDER BY pr
        """,
        "rects_affine_warp": """
            WITH s AS (
              SELECT (s_suppkey*37) % 248 AS a, (s_suppkey*53) % 248 AS b,
                     s_suppkey % 3 + 1 AS sx, (s_suppkey*7) % 3 + 1 AS sy
              FROM supplier),
            p AS (
              SELECT DISTINCT a + i.range AS gx, b + j.range AS gy
              FROM s, range(0, 4) i, range(0, 4) j
              WHERE i.range <= sx AND j.range <= sy),
            o AS (SELECT i.range AS ox, j.range AS oy
                  FROM range(0, 256) i, range(0, 256) j),
            pre AS (SELECT ox, oy,
                       128 + CAST(floor((4*(ox-128) + 3*(oy-128))
                                        / 5.0) AS BIGINT) AS ix,
                       128 + CAST(floor((-3*(ox-128) + 4*(oy-128))
                                        / 5.0) AS BIGINT) AS iy
                    FROM o)
            SELECT ox AS gx, oy AS gy
            FROM pre JOIN p ON p.gx = pre.ix AND p.gy = pre.iy
            WHERE ix BETWEEN 0 AND 255 AND iy BETWEEN 0 AND 255
            ORDER BY gx, gy
        """,
        "docs_grouped_split": """
            WITH RECURSIVE srcs AS (
                SELECT DISTINCT source FROM documents
            ),
            b AS (SELECT source, hex(encode(source)) AS hx,
                         octet_length(encode(source)) AS nb
                  FROM srcs),
            fnv AS (
                SELECT source, hx, nb, 0 AS j,
                       CAST(14695981039346656037 AS HUGEINT) AS h
                FROM b
                UNION ALL
                SELECT source, hx, nb, j + 1,
                    (xor(h, CAST(
                        strpos('123456789ABCDEF',
                               substr(hx, 2*j + 1, 1)) * 16 +
                        strpos('123456789ABCDEF',
                               substr(hx, 2*j + 2, 1)) AS HUGEINT))
                     * 1099511628211) % 18446744073709551616
                FROM fnv WHERE j < nb
            ),
            sp AS (SELECT source, CAST(h % 8 AS BIGINT) AS split
                   FROM fnv WHERE j = nb),
            d AS (SELECT sp.split, d.source,
                         CAST(COUNT(*) AS BIGINT) AS n_docs,
                         CAST(SUM(d.doc_id % 1000003) AS BIGINT)
                             AS id_checksum
                  FROM documents d JOIN sp USING (source)
                  GROUP BY sp.split, d.source)
            SELECT split, CAST(SUM(n_docs) AS BIGINT) AS n_docs,
                   CAST(COUNT(*) AS BIGINT) AS n_sources,
                   CAST(SUM(id_checksum) AS BIGINT) AS id_checksum
            FROM d GROUP BY split ORDER BY split
        """,
        "docs_keywords": r"""
            WITH tok AS (
              SELECT doc_id,
                     unnest(regexp_split_to_array(text, '\s+')) AS term
              FROM documents
            ),
            t AS (SELECT doc_id, term FROM tok WHERE term <> ''),
            tf AS (SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf
                   FROM t GROUP BY doc_id, term),
            df AS (SELECT term, CAST(COUNT(*) AS BIGINT) AS df
                   FROM tf GROUP BY term),
            n AS (SELECT COUNT(*) AS n FROM documents),
            scored AS (
              SELECT tf.doc_id, tf.term, tf.tf, df.df,
                     tf.tf * length(bin(n.n // df.df)) AS score
              FROM tf JOIN df USING (term), n
              WHERE tf.doc_id % 499 = 0)
            SELECT doc_id, kw_rank, term, tf, df,
                   CAST(score AS BIGINT) AS score FROM (
              SELECT *, CAST(ROW_NUMBER() OVER (
                  PARTITION BY doc_id ORDER BY score DESC, term
              ) AS BIGINT) AS kw_rank FROM scored
            ) WHERE kw_rank <= 3 ORDER BY doc_id, kw_rank
        """,
        "events_debounce": """
            WITH RECURSIVE e AS (
                SELECT user_id, epoch_us(ts) // 1000000 AS sec
                FROM events),
            k(user_id, sec) AS (
                SELECT user_id, MIN(sec) FROM e GROUP BY user_id
                UNION ALL
                SELECT e.user_id, MIN(e.sec)
                FROM k JOIN e ON e.user_id = k.user_id
                            AND e.sec >= k.sec + 21600
                GROUP BY e.user_id
            )
            SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_kept,
                   CAST(SUM(sec % 100000) AS BIGINT) AS sum_sec
            FROM k GROUP BY user_id ORDER BY user_id
        """,
        "parts_fuzzy_matches": """
            WITH raw AS (
                SELECT regexp_replace(p_name, ' .*$', '') AS word
                FROM part
                UNION
                SELECT regexp_replace(p_name, '^[^ ]* ', '') FROM part),
            w AS (SELECT DISTINCT word FROM raw),
            u AS (SELECT word,
                         upper(regexp_replace(word, '[^A-Za-z]', '', 'g'))
                             AS uw FROM w),
            s AS (SELECT word, substr(uw, 1, 1) AS f,
                         substr(uw, 1, 1)
                             || translate(substr(uw, 2), 'HW', '') AS body
                  FROM u),
            c AS (SELECT word, f,
                         translate(body, 'BFPVCGJKQSXZDTLMNRAEIOUY',
                                   '111122222222334556000000') AS coded
                  FROM s),
            x AS (SELECT word, f, i,
                         substr(coded, CAST(i AS INT), 1) AS ch
                  FROM c, unnest(generate_series(1, length(coded)))
                           AS t(i)),
            y AS (SELECT word, f, i, ch,
                         lag(ch) OVER (PARTITION BY word ORDER BY i)
                             AS pch
                  FROM x),
            z AS (SELECT word, f,
                         string_agg(ch, '' ORDER BY i) AS coll
                  FROM y WHERE pch IS NULL OR ch <> pch
                  GROUP BY word, f),
            e AS (SELECT word,
                         substr(replace(substr(coll, 2), '0', '')
                                || '000', 1, 3) AS block
                  FROM z)
            SELECT a.word AS word_a, b.word AS word_b, a.block,
                   CAST(levenshtein(a.word, b.word) AS BIGINT) AS lev
            FROM e a JOIN e b ON a.block = b.block AND a.word < b.word
            WHERE levenshtein(a.word, b.word) <= 2
            ORDER BY a.block, word_a, word_b
        """,
        "docs_temperature_mix": """
            WITH tot AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n
                         FROM documents GROUP BY source),
            mx AS (SELECT MAX(CAST(floor(sqrt(n)) AS BIGINT)) AS rmax
                   FROM tot),
            thr AS (SELECT source, n,
                           CAST(floor(sqrt(n)) AS BIGINT)
                               * 4294967296 // rmax AS t
                    FROM tot, mx),
            k AS (SELECT d.source,
                         CAST(COUNT(*) AS BIGINT) AS n_kept
                  FROM documents d JOIN thr USING (source)
                  WHERE ((d.doc_id % 1000003) * 2654435761)
                        % 4294967296 < t
                  GROUP BY d.source)
            SELECT source, n, n_kept
            FROM thr JOIN k USING (source) ORDER BY source
        """,
        "orders_zonemap_scan": """
            SELECT o_orderpriority,
                   CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT))
                        AS BIGINT) AS sum_cents
            FROM orders
            WHERE datediff('day', DATE '1970-01-01',
                           CAST(o_orderdate AS DATE)) BETWEEN 9496
                  AND 9586
            GROUP BY o_orderpriority ORDER BY o_orderpriority
        """,
        "docs_skipgram_top": r"""
            WITH arrs AS (
              SELECT doc_id,
                     regexp_split_to_array(text, '\s+') AS arr
              FROM documents),
            raw AS (
              SELECT doc_id, arr[CAST(i AS INT)] AS term, i AS pos
              FROM arrs, unnest(generate_series(1, len(arr)))
                   AS t(i)),
            tok AS (
              SELECT doc_id, term,
                     ROW_NUMBER() OVER (PARTITION BY doc_id
                                        ORDER BY pos) AS i
              FROM raw WHERE term <> ''),
            prs AS (
              SELECT a.term AS a, b.term AS b,
                     CAST(COUNT(*) AS BIGINT) AS cnt
              FROM tok a JOIN tok b
                ON a.doc_id = b.doc_id
               AND b.i - a.i BETWEEN 1 AND 2
              GROUP BY a.term, b.term)
            SELECT CAST(ROW_NUMBER() OVER (
                       ORDER BY cnt DESC, a, b) AS BIGINT) AS rank,
                   a, b, cnt
            FROM prs ORDER BY cnt DESC, a, b LIMIT 20
        """,
        "customers_rfm": """
            WITH c AS (SELECT o_custkey,
                    MAX(datediff('day', DATE '1970-01-01',
                                 CAST(o_orderdate AS DATE))) AS r,
                    CAST(COUNT(*) AS BIGINT) AS f,
                    CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT))
                         AS BIGINT) AS m
                FROM orders GROUP BY o_custkey),
            q AS (SELECT
                    quantile_disc(r, 0.25) AS r1, quantile_disc(r, 0.5)
                        AS r2, quantile_disc(r, 0.75) AS r3,
                    quantile_disc(f, 0.25) AS f1, quantile_disc(f, 0.5)
                        AS f2, quantile_disc(f, 0.75) AS f3,
                    quantile_disc(m, 0.25) AS m1, quantile_disc(m, 0.5)
                        AS m2, quantile_disc(m, 0.75) AS m3
                  FROM c),
            b AS (SELECT
                    1 + CASE WHEN r > r1 THEN 1 ELSE 0 END
                      + CASE WHEN r > r2 THEN 1 ELSE 0 END
                      + CASE WHEN r > r3 THEN 1 ELSE 0 END AS rb,
                    1 + CASE WHEN f > f1 THEN 1 ELSE 0 END
                      + CASE WHEN f > f2 THEN 1 ELSE 0 END
                      + CASE WHEN f > f3 THEN 1 ELSE 0 END AS fb,
                    1 + CASE WHEN m > m1 THEN 1 ELSE 0 END
                      + CASE WHEN m > m2 THEN 1 ELSE 0 END
                      + CASE WHEN m > m3 THEN 1 ELSE 0 END AS mb,
                    m
                  FROM c, q)
            SELECT CAST(rb AS BIGINT) AS rb, CAST(fb AS BIGINT) AS fb,
                   CAST(mb AS BIGINT) AS mb,
                   CAST(COUNT(*) AS BIGINT) AS n_customers,
                   CAST(SUM(m) AS BIGINT) AS sum_cents
            FROM b GROUP BY rb, fb, mb ORDER BY rb, fb, mb
        """,
        "customers_l_diversity": """
            WITH c AS (SELECT c_nationkey AS nation,
                              c_mktsegment AS segment,
                              CAST(floor(CAST(round(c_acctbal * 100)
                                  AS BIGINT) / 200000.0) AS BIGINT)
                                  AS band
                       FROM customer),
            g AS (SELECT nation, segment, band,
                         CAST(COUNT(*) AS BIGINT) AS n
                  FROM c GROUP BY 1, 2, 3),
            bands AS (SELECT band, CAST(COUNT(*) AS BIGINT) AS nb
                      FROM c GROUP BY 1),
            tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS N,
                           CAST(COUNT(DISTINCT band) AS BIGINT) AS m
                    FROM c),
            grp AS (SELECT nation, segment,
                           CAST(SUM(n) AS BIGINT) AS n_rows,
                           CAST(COUNT(*) AS BIGINT) AS distinct_bands
                    FROM g GROUP BY 1, 2),
            grid AS (SELECT grp.nation, grp.segment, b.band,
                            grp.n_rows, COALESCE(g2.n, 0) AS ngb, b.nb
                     FROM grp CROSS JOIN bands b
                     LEFT JOIN g g2 ON g2.nation = grp.nation
                         AND g2.segment = grp.segment
                         AND g2.band = b.band),
            cums AS (SELECT nation, segment, n_rows,
                            SUM(ngb) OVER (PARTITION BY nation, segment
                                ORDER BY band) AS cg,
                            SUM(nb) OVER (PARTITION BY nation, segment
                                ORDER BY band) AS cgl
                     FROM grid),
            emd AS (SELECT nation, segment,
                           CAST(SUM(ABS(cg * (SELECT N FROM tot)
                               - cgl * n_rows)) AS BIGINT) AS emd_num
                    FROM cums GROUP BY 1, 2)
            SELECT grp.nation, grp.segment, grp.n_rows,
                   grp.distinct_bands,
                   CAST(CASE WHEN grp.distinct_bands >= 3
                        THEN 1 ELSE 0 END AS BIGINT) AS l_ok,
                   emd.emd_num,
                   CAST(CASE WHEN 5 * emd.emd_num <= 1 * grp.n_rows
                        * (SELECT N FROM tot)
                        * ((SELECT m FROM tot) - 1)
                        THEN 1 ELSE 0 END AS BIGINT) AS t_ok
            FROM grp JOIN emd ON emd.nation = grp.nation
                AND emd.segment = grp.segment
            ORDER BY 1, 2
        """,
        "suppliers_scc": """
            WITH RECURSIVE params AS (
                SELECT CAST(COUNT(*) AS BIGINT) AS n FROM supplier),
            edges AS (
                SELECT CAST(s_suppkey AS BIGINT) AS src,
                       CAST(CASE WHEN s_suppkey % 10 = 0
                            THEN s_suppkey - 9
                            ELSE s_suppkey + 1 END AS BIGINT) AS dst
                FROM supplier
                UNION ALL
                SELECT CAST(s_suppkey AS BIGINT),
                       CAST(((s_suppkey * 7) % (SELECT n FROM params))
                            + 1 AS BIGINT)
                FROM supplier),
            e AS (SELECT DISTINCT src, dst FROM edges
                  WHERE dst >= 1 AND dst <= (SELECT n FROM params)
                    AND src <> dst),
            reach(a, b) AS (
                SELECT src, dst FROM e
                UNION
                SELECT r.a, e2.dst FROM reach r
                JOIN e e2 ON e2.src = r.b),
            nodes AS (SELECT src AS v FROM e
                      UNION SELECT dst FROM e)
            SELECT n2.v AS node,
                   LEAST(n2.v, COALESCE(MIN(CASE WHEN r2.a IS NOT NULL
                       THEN r1.b END), n2.v)) AS scc
            FROM nodes n2
            LEFT JOIN reach r1 ON r1.a = n2.v
            LEFT JOIN reach r2 ON r2.a = r1.b AND r2.b = n2.v
            GROUP BY n2.v
            ORDER BY node
        """,
        "rects_terrain_aspect": """
            WITH s AS (
              SELECT (s_suppkey*37) % 248 AS a, (s_suppkey*53) % 248 AS b,
                     s_suppkey % 3 + 1 AS sx, (s_suppkey*7) % 3 + 1 AS sy
              FROM supplier),
            p AS (
              SELECT DISTINCT a + i.range AS gx, b + j.range AS gy
              FROM s, range(0, 4) i, range(0, 4) j
              WHERE i.range <= sx AND j.range <= sy),
            dens AS (
              SELECT p.gx + i.range - 2 AS gx, p.gy + j.range - 2 AS gy,
                     CAST(COUNT(*) AS BIGINT) AS d
              FROM p, range(0, 5) i, range(0, 5) j
              WHERE p.gx + i.range - 2 BETWEEN 0 AND 255
                AND p.gy + j.range - 2 BETWEEN 0 AND 255
              GROUP BY 1, 2),
            dirs AS (SELECT * FROM (VALUES (0,1,0),(1,1,1),(2,0,1),
                     (3,-1,1),(4,-1,0),(5,-1,-1),(6,0,-1),(7,1,-1))
                     AS t(i, dx, dy)),
            j AS (SELECT c.gx, c.gy, c.d AS z, dd.i,
                         COALESCE(nb.d, 0) AS zn
                  FROM dens c CROSS JOIN dirs dd
                  LEFT JOIN dens nb ON nb.gx = c.gx + dd.dx
                      AND nb.gy = c.gy + dd.dy),
            a1 AS (SELECT gx, gy, z, MAX(z - zn) AS steepest,
                          CAST(SUM(CASE WHEN zn > z THEN 1 ELSE 0 END)
                               AS BIGINT) AS n_higher
                   FROM j GROUP BY 1, 2, 3),
            asp AS (SELECT j.gx, j.gy, CAST(MIN(j.i) AS BIGINT) AS mi
                    FROM j JOIN a1 ON a1.gx = j.gx AND a1.gy = j.gy
                    WHERE j.z - j.zn = a1.steepest GROUP BY 1, 2)
            SELECT CAST(a1.gx AS BIGINT) AS gx,
                   CAST(a1.gy AS BIGINT) AS gy, a1.z,
                   CAST(a1.steepest AS BIGINT) AS steepest,
                   CAST(CASE WHEN a1.steepest > 0 THEN asp.mi
                        ELSE -1 END AS BIGINT) AS aspect,
                   a1.n_higher
            FROM a1 JOIN asp ON asp.gx = a1.gx AND asp.gy = a1.gy
            WHERE (a1.gx*31 + a1.gy*17) % 13 = 0
            ORDER BY a1.gx, a1.gy
        """,
        "rects_flow_accumulation": """
            WITH RECURSIVE s AS (
              SELECT (s_suppkey*37) % 248 AS a, (s_suppkey*53) % 248 AS b,
                     s_suppkey % 3 + 1 AS sx, (s_suppkey*7) % 3 + 1 AS sy
              FROM supplier),
            p AS (
              SELECT DISTINCT a + i.range AS gx, b + j.range AS gy
              FROM s, range(0, 4) i, range(0, 4) j
              WHERE i.range <= sx AND j.range <= sy),
            dens AS (
              SELECT p.gx + i.range - 2 AS gx, p.gy + j.range - 2 AS gy,
                     CAST(COUNT(*) AS BIGINT) AS d
              FROM p, range(0, 5) i, range(0, 5) j
              WHERE p.gx + i.range - 2 BETWEEN 0 AND 255
                AND p.gy + j.range - 2 BETWEEN 0 AND 255
              GROUP BY 1, 2),
            dirs AS (SELECT * FROM (VALUES (0,1,0),(1,1,1),(2,0,1),
                     (3,-1,1),(4,-1,0),(5,-1,-1),(6,0,-1),(7,1,-1))
                     AS t(i, dx, dy)),
            j AS (SELECT c.gx, c.gy, c.d AS z, dd.i,
                         COALESCE(nb.d, 0) AS zn
                  FROM dens c CROSS JOIN dirs dd
                  LEFT JOIN dens nb ON nb.gx = c.gx + dd.dx
                      AND nb.gy = c.gy + dd.dy),
            a1 AS (SELECT gx, gy, z, MAX(z - zn) AS steepest
                   FROM j GROUP BY 1, 2, 3),
            asp AS (SELECT j.gx, j.gy, MIN(j.i) AS mi
                    FROM j JOIN a1 ON a1.gx = j.gx AND a1.gy = j.gy
                    WHERE j.z - j.zn = a1.steepest GROUP BY 1, 2),
            ptr AS (SELECT a1.gx, a1.gy, a1.z,
                           CASE WHEN a1.steepest > 0 THEN asp.mi
                                ELSE -1 END AS aspect
                    FROM a1 JOIN asp ON asp.gx = a1.gx
                        AND asp.gy = a1.gy),
            ptr2 AS (SELECT pr.gx, pr.gy, pr.z, pr.aspect,
                            pr.gx + d.dx AS tx, pr.gy + d.dy AS ty
                     FROM ptr pr LEFT JOIN dirs d ON d.i = pr.aspect),
            chain(ugx, ugy, cx, cy) AS (
              SELECT gx, gy, gx, gy FROM ptr2
              UNION ALL
              SELECT c.ugx, c.ugy, n.gx, n.gy
              FROM chain c
              JOIN ptr2 pc ON pc.gx = c.cx AND pc.gy = c.cy
              JOIN ptr2 n ON n.gx = pc.tx AND n.gy = pc.ty),
            acc AS (SELECT cx AS gx, cy AS gy,
                           CAST(COUNT(*) AS BIGINT) AS acc
                    FROM chain GROUP BY 1, 2)
            SELECT CAST(p2.gx AS BIGINT) AS gx,
                   CAST(p2.gy AS BIGINT) AS gy, p2.z, acc.acc,
                   CAST(CASE WHEN p2.aspect >= 0 THEN 1 ELSE 0 END
                        AS BIGINT) AS has_outflow
            FROM ptr2 p2 JOIN acc ON acc.gx = p2.gx AND acc.gy = p2.gy
            WHERE (p2.gx*31 + p2.gy*17) % 13 = 0
            ORDER BY p2.gx, p2.gy
        """,
        "events_dtw_pairs": """
            WITH RECURSIVE seq AS (
              SELECT user_id,
                     CAST(ROW_NUMBER() OVER (PARTITION BY user_id
                         ORDER BY ts, event_id) - 1 AS BIGINT) AS i,
                     (event_id*37) % 200 AS x,
                     (event_id*53) % 200 AS y
              FROM events
              QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id
                  ORDER BY ts, event_id) <= 5),
            elig AS (SELECT user_id FROM seq GROUP BY user_id
                     HAVING COUNT(*) = 5),
            pairs AS (SELECT a.user_id AS ua, b.user_id AS ub
                      FROM elig a JOIN elig b
                        ON b.user_id = a.user_id + 1
                      WHERE a.user_id % 2 = 0),
            cost AS (SELECT p.ua, p.ub, sa.i AS i, sb.i AS j,
                            (sa.x-sb.x)*(sa.x-sb.x)
                            + (sa.y-sb.y)*(sa.y-sb.y) AS d
                     FROM pairs p
                     JOIN seq sa ON sa.user_id = p.ua
                     JOIN seq sb ON sb.user_id = p.ub),
            paths(ua, ub, i, j, c) AS (
              SELECT ua, ub, i, j, d FROM cost WHERE i = 0 AND j = 0
              UNION
              SELECT c2.ua, c2.ub, c2.i, c2.j, p.c + c2.d
              FROM paths p JOIN cost c2
                ON c2.ua = p.ua AND c2.ub = p.ub
               AND ((c2.i = p.i + 1 AND c2.j = p.j)
                    OR (c2.i = p.i AND c2.j = p.j + 1)
                    OR (c2.i = p.i + 1 AND c2.j = p.j + 1)))
            SELECT ua AS user_a, ub AS user_b,
                   CAST(MIN(c) AS BIGINT) AS dtw_cost
            FROM paths WHERE i = 4 AND j = 4
            GROUP BY ua, ub ORDER BY ua
        """,
        "suppliers_closeness": """
            WITH RECURSIVE e AS (
              SELECT s_suppkey AS a, s_suppkey - (s_suppkey % 7) AS b
              FROM supplier
              UNION ALL
              SELECT s_suppkey - (s_suppkey % 7), s_suppkey FROM supplier
              UNION ALL
              SELECT s_suppkey, s_suppkey - 1 FROM supplier
              WHERE s_suppkey % 10 = 0
              UNION ALL
              SELECT s_suppkey - 1, s_suppkey FROM supplier
              WHERE s_suppkey % 10 = 0
            ),
            walk(src, node, d) AS (
              SELECT s_suppkey, s_suppkey, 0 FROM supplier
              UNION
              SELECT walk.src, e.b, walk.d + 1
              FROM walk JOIN e ON e.a = walk.node
              WHERE walk.d < 64
            ),
            md AS (SELECT src, node, MIN(d) AS d
                   FROM walk GROUP BY src, node)
            SELECT src AS node,
                   CAST(SUM(d) AS BIGINT) AS farness,
                   CAST(COUNT(*) AS BIGINT) AS n_reached
            FROM md GROUP BY src ORDER BY src
        """,
        "suppliers_voronoi_areas": """
            WITH s AS (
              SELECT s_suppkey,
                     (s_suppkey*7919) % 36000 - 18000 AS sx,
                     (s_suppkey*104729) % 17000 - 8500 AS sy
              FROM supplier),
            g AS (SELECT i.range AS cx, j.range AS cy,
                         -18000 + i.range*300 + 150 AS px,
                         -8500 + j.range*200 + 100 AS py
                  FROM range(0, 120) i, range(0, 85) j),
            w AS (SELECT g.cx, g.cy, s.s_suppkey
                  FROM g CROSS JOIN s
                  QUALIFY ROW_NUMBER() OVER (
                      PARTITION BY g.cx, g.cy
                      ORDER BY (px-sx)*(px-sx) + (py-sy)*(py-sy),
                               s.s_suppkey) = 1)
            SELECT s_suppkey,
                   CAST(COUNT(*) AS BIGINT) AS n_cells,
                   CAST(MIN(cx) AS BIGINT) AS min_cx,
                   CAST(MAX(cx) AS BIGINT) AS max_cx,
                   CAST(MIN(cy) AS BIGINT) AS min_cy,
                   CAST(MAX(cy) AS BIGINT) AS max_cy
            FROM w GROUP BY s_suppkey ORDER BY s_suppkey
        """,
        "events_pattern_match": """
            WITH seq AS (
              SELECT user_id,
                     string_agg(substr(event_type, 1, 1), ''
                                ORDER BY ts, event_id) AS s
              FROM events GROUP BY user_id),
            pats AS (SELECT * FROM (VALUES ('ee+'), ('sv'),
                     ('v[cs]*p')) AS t(pattern)),
            m AS (SELECT p.pattern,
                         CAST(len(regexp_extract_all(u.s, p.pattern))
                              AS BIGINT) AS k
                  FROM seq u CROSS JOIN pats p)
            SELECT pattern,
                   CAST(SUM(k) AS BIGINT) AS n_matches,
                   CAST(SUM(CASE WHEN k > 0 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_users,
                   CAST(MAX(k) AS BIGINT) AS max_per_user
            FROM m GROUP BY pattern ORDER BY pattern
        """,
        "rects_watershed_basins": """
            WITH RECURSIVE s AS (
              SELECT (s_suppkey*37) % 248 AS a, (s_suppkey*53) % 248 AS b,
                     s_suppkey % 3 + 1 AS sx, (s_suppkey*7) % 3 + 1 AS sy
              FROM supplier),
            p AS (
              SELECT DISTINCT a + i.range AS gx, b + j.range AS gy
              FROM s, range(0, 4) i, range(0, 4) j
              WHERE i.range <= sx AND j.range <= sy),
            dens AS (
              SELECT p.gx + i.range - 2 AS gx, p.gy + j.range - 2 AS gy,
                     CAST(COUNT(*) AS BIGINT) AS d
              FROM p, range(0, 5) i, range(0, 5) j
              WHERE p.gx + i.range - 2 BETWEEN 0 AND 255
                AND p.gy + j.range - 2 BETWEEN 0 AND 255
              GROUP BY 1, 2),
            dirs AS (SELECT * FROM (VALUES (0,1,0),(1,1,1),(2,0,1),
                     (3,-1,1),(4,-1,0),(5,-1,-1),(6,0,-1),(7,1,-1))
                     AS t(i, dx, dy)),
            j AS (SELECT c.gx, c.gy, c.d AS z, dd.i,
                         COALESCE(nb.d, 0) AS zn
                  FROM dens c CROSS JOIN dirs dd
                  LEFT JOIN dens nb ON nb.gx = c.gx + dd.dx
                      AND nb.gy = c.gy + dd.dy),
            a1 AS (SELECT gx, gy, z, MAX(z - zn) AS steepest
                   FROM j GROUP BY 1, 2, 3),
            asp AS (SELECT j.gx, j.gy, MIN(j.i) AS mi
                    FROM j JOIN a1 ON a1.gx = j.gx AND a1.gy = j.gy
                    WHERE j.z - j.zn = a1.steepest GROUP BY 1, 2),
            ptr AS (SELECT a1.gx, a1.gy, a1.z,
                           CASE WHEN a1.steepest > 0 THEN asp.mi
                                ELSE -1 END AS aspect
                    FROM a1 JOIN asp ON asp.gx = a1.gx
                        AND asp.gy = a1.gy),
            ptr2 AS (SELECT pr.gx, pr.gy, pr.z, pr.aspect,
                            pr.gx + d.dx AS tx, pr.gy + d.dy AS ty
                     FROM ptr pr LEFT JOIN dirs d ON d.i = pr.aspect),
            chain(ugx, ugy, cx, cy) AS (
              SELECT gx, gy, gx, gy FROM ptr2
              UNION ALL
              SELECT c.ugx, c.ugy, n.gx, n.gy
              FROM chain c
              JOIN ptr2 pc ON pc.gx = c.cx AND pc.gy = c.cy
              JOIN ptr2 n ON n.gx = pc.tx AND n.gy = pc.ty),
            term AS (
              SELECT c.ugx, c.ugy,
                     CASE WHEN pc.aspect = -1
                          THEN pc.gx * 256 + pc.gy
                          ELSE -1 END AS basin
              FROM chain c
              JOIN ptr2 pc ON pc.gx = c.cx AND pc.gy = c.cy
              LEFT JOIN ptr2 n ON n.gx = pc.tx AND n.gy = pc.ty
              WHERE pc.aspect = -1 OR n.gx IS NULL)
            SELECT CAST(t.basin AS BIGINT) AS basin,
                   CAST(COUNT(*) AS BIGINT) AS n_cells,
                   CAST(SUM(p2.z) AS BIGINT) AS sum_z,
                   CAST(MAX(p2.z) AS BIGINT) AS max_z
            FROM term t JOIN ptr2 p2
              ON p2.gx = t.ugx AND p2.gy = t.ugy
            GROUP BY t.basin ORDER BY basin
        """,
        "customers_k_anonymity": """
            WITH c AS (SELECT c_nationkey AS nation,
                              c_mktsegment AS segment,
                              CAST(floor(CAST(round(c_acctbal * 100)
                                  AS BIGINT) / 200000.0) AS BIGINT)
                                  AS band,
                              CAST(COUNT(*) AS BIGINT) AS n
                       FROM customer GROUP BY 1, 2, 3)
            SELECT band, CAST(COUNT(*) AS BIGINT) AS n_groups,
                   CAST(SUM(CASE WHEN n < 5 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_risky_groups,
                   CAST(SUM(CASE WHEN n < 5 THEN n ELSE 0 END)
                        AS BIGINT) AS rows_at_risk,
                   CAST(MAX(n) AS BIGINT) AS max_group
            FROM c GROUP BY band ORDER BY band
        """,
        "orders_reconciliation": """
            WITH l AS (SELECT l_orderkey,
                              CAST(SUM(CAST(round(l_extendedprice * 100)
                                  AS BIGINT)) AS BIGINT) AS lc
                       FROM lineitem GROUP BY l_orderkey),
            j AS (SELECT o.o_orderpriority,
                         CAST(round(o.o_totalprice * 100) AS BIGINT)
                             AS oc, l.lc
                  FROM orders o LEFT JOIN l
                    ON o.o_orderkey = l.l_orderkey)
            SELECT o_orderpriority,
                   CAST(COUNT(*) AS BIGINT) AS n_orders,
                   CAST(SUM(CASE WHEN lc IS NOT NULL THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_with_lines,
                   CAST(SUM(CASE WHEN lc = oc THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_exact,
                   CAST(SUM(CASE WHEN lc IS NOT NULL
                                 THEN abs(oc - lc) ELSE 0 END)
                        AS BIGINT) AS abs_break_cents,
                   CAST(MAX(CASE WHEN lc IS NOT NULL
                                 THEN abs(oc - lc) ELSE 0 END)
                        AS BIGINT) AS max_break
            FROM j GROUP BY o_orderpriority ORDER BY o_orderpriority
        """,
        "nations_viterbi_match": """
            WITH RECURSIVE
            seq0 AS (SELECT c_nationkey AS code,
                            CAST(ROW_NUMBER() OVER (
                                PARTITION BY c_nationkey
                                ORDER BY c_custkey) - 1 AS BIGINT) AS i,
                            (c_custkey * 37) % 3600 - 1800 AS x,
                            (c_custkey * 53) % 1700 - 850 AS y
                     FROM customer
                     QUALIFY ROW_NUMBER() OVER (
                         PARTITION BY c_nationkey
                         ORDER BY c_custkey) <= 8),
            meff AS (SELECT LEAST(8, MIN(cnt)) AS m FROM
                     (SELECT COUNT(*) AS cnt FROM seq0 GROUP BY code)),
            seq AS (SELECT seq0.* FROM seq0, meff WHERE i < m),
            nodes AS (SELECT CAST(ROW_NUMBER() OVER (
                          ORDER BY s_suppkey) - 1 AS BIGINT) AS r,
                          (s_suppkey * 7919) % 36000 - 18000 AS sx,
                          (s_suppkey * 104729) % 17000 - 8500 AS sy
                      FROM supplier),
            emit AS (SELECT code, i, r,
                            (x - sx) * (x - sx) + (y - sy) * (y - sy)
                                AS e
                     FROM seq, nodes),
            v(code, i, r, c) AS (
                SELECT code, i, r, e FROM emit WHERE i = 0
                UNION ALL
                SELECT e.code, e.i, e.r,
                       e.e + MIN(v.c + 500000 * abs(v.r - e.r))
                FROM v JOIN emit e
                  ON e.code = v.code AND e.i = v.i + 1
                GROUP BY e.code, e.i, e.r, e.e
            ),
            fin AS (SELECT v.code, v.c, v.r FROM v, meff
                    WHERE v.i = m - 1)
            SELECT code, CAST(c AS BIGINT) AS viterbi_cost,
                   CAST(r AS BIGINT) AS last_node
            FROM (SELECT *, ROW_NUMBER() OVER (
                      PARTITION BY code ORDER BY c, r) AS rk FROM fin)
            WHERE rk = 1 ORDER BY code
        """,
        "customers_survival": """
            WITH o AS (SELECT o_custkey AS c,
                              datediff('day', DATE '1970-01-01',
                                       CAST(o_orderdate AS DATE)) AS day
                       FROM orders),
            h AS (SELECT MAX(day) AS horizon FROM o),
            g AS (SELECT c, day,
                         LEAD(day) OVER (PARTITION BY c ORDER BY day)
                             AS nxt
                  FROM o),
            dur AS (SELECT CASE WHEN nxt IS NULL
                                THEN (SELECT horizon FROM h) - day
                                ELSE nxt - day END AS dur,
                           CASE WHEN nxt IS NULL THEN 0 ELSE 1 END
                               AS event
                    FROM g),
            byday AS (SELECT dur,
                             CAST(SUM(event) AS BIGINT) AS n_events,
                             CAST(COUNT(*) AS BIGINT) AS n_all
                      FROM dur GROUP BY dur),
            risk AS (SELECT dur, n_events,
                            CAST(SUM(n_all) OVER (ORDER BY dur DESC)
                                 AS BIGINT) AS n_at_risk
                     FROM byday)
            SELECT dur, n_events, n_at_risk FROM risk
            WHERE n_events > 0 ORDER BY dur LIMIT 40
        """,
        "events_attribution": """
            WITH t AS (SELECT user_id, event_type AS touch_type,
                              epoch_us(ts) AS t_us
                       FROM events
                       WHERE event_type IN ('click', 'view')),
            p AS (SELECT user_id, event_id, epoch_us(ts) AS p_us,
                         CAST(round(COALESCE(value, 0) * 100)
                              AS BIGINT) AS cents
                  FROM events WHERE event_type = 'purchase'),
            lastt AS (SELECT * FROM (
                SELECT p.event_id, p.cents, t.touch_type,
                       ROW_NUMBER() OVER (PARTITION BY p.event_id
                           ORDER BY t.t_us DESC) AS rk
                FROM p JOIN t ON t.user_id = p.user_id
                 AND t.t_us < p.p_us
                 AND t.t_us >= p.p_us - 604800000000
            ) WHERE rk = 1),
            firstt AS (SELECT * FROM (
                SELECT p.event_id, p.cents, t.touch_type,
                       ROW_NUMBER() OVER (PARTITION BY p.event_id
                           ORDER BY t.t_us ASC) AS rk
                FROM p JOIN t ON t.user_id = p.user_id
                 AND t.t_us < p.p_us
                 AND t.t_us >= p.p_us - 604800000000
            ) WHERE rk = 1),
            la AS (SELECT touch_type,
                          CAST(COUNT(*) AS BIGINT) AS n_last,
                          CAST(SUM(cents) AS BIGINT) AS cents_last
                   FROM lastt GROUP BY touch_type),
            fa AS (SELECT touch_type,
                          CAST(COUNT(*) AS BIGINT) AS n_first,
                          CAST(SUM(cents) AS BIGINT) AS cents_first
                   FROM firstt GROUP BY touch_type)
            SELECT touch_type, n_last, cents_last, n_first, cents_first
            FROM la JOIN fa USING (touch_type) ORDER BY touch_type
        """,
        "orders_priority_diameter": """
            WITH g AS (SELECT o_orderpriority AS grp,
                              CAST(COUNT(*) AS BIGINT) AS cnt
                       FROM orders GROUP BY o_orderpriority),
            rim AS (SELECT grp, CAST(i AS DOUBLE) AS x,
                           CAST(i AS DOUBLE) * CAST(i AS DOUBLE) AS y
                    FROM g, unnest(generate_series(7, 7 * (cnt // 7), 7))
                         AS t(i)),
            hv AS (SELECT grp, CAST(COUNT(*) AS BIGINT) AS n_hull_vertices
                   FROM rim GROUP BY grp),
            dd AS (SELECT a.grp,
                          CAST(MAX((a.x - b.x) * (a.x - b.x)
                               + (a.y - b.y) * (a.y - b.y)) AS BIGINT)
                              AS diameter_d2
                   FROM rim a JOIN rim b ON a.grp = b.grp
                   GROUP BY a.grp)
            SELECT dd.grp, diameter_d2, n_hull_vertices
            FROM dd JOIN hv ON dd.grp = hv.grp ORDER BY dd.grp
        """,
        "orders_backlog_curve": """
            WITH o AS (SELECT datediff('day', DATE '1970-01-01',
                              CAST(o_orderdate AS DATE)) AS s,
                              o_orderkey % 30 + 1 AS dur
                       FROM orders),
            bb AS (SELECT MIN(s) AS lo, MAX(s) + 31 AS hi FROM o),
            days AS (SELECT lo + 30 * t.i AS day FROM bb,
                     unnest(generate_series(0, (hi - lo) // 30))
                         AS t(i)),
            c AS (SELECT day,
                         CAST((SELECT COUNT(*) FROM o
                               WHERE o.s <= day
                                 AND day < o.s + o.dur) AS BIGINT)
                             AS n_open
                  FROM days)
            SELECT day, n_open FROM c ORDER BY day
        """,
        "docs_pair_token_edit": r"""
            WITH RECURSIVE
            prs AS (SELECT d.doc_id AS pair FROM documents d
                    WHERE d.doc_id % 61 = 0 AND EXISTS (
                        SELECT 1 FROM documents e
                        WHERE e.doc_id = d.doc_id + 1)),
            arrs AS (SELECT doc_id,
                            regexp_split_to_array(text, '\s+') AS arr
                     FROM documents
                     WHERE doc_id IN (SELECT pair FROM prs)
                        OR doc_id IN (SELECT pair + 1 FROM prs)),
            raw AS (SELECT doc_id, arr[CAST(i AS INT)] AS term, i
                    FROM arrs, unnest(generate_series(1, len(arr)))
                         AS t(i)),
            tok AS (SELECT doc_id, term,
                           ROW_NUMBER() OVER (PARTITION BY doc_id
                                              ORDER BY i) AS rnk
                    FROM raw WHERE term <> ''
                    QUALIFY rnk <= 48),
            ta AS (SELECT pair, rnk AS i, term FROM prs
                   JOIN tok ON tok.doc_id = pair),
            tb AS (SELECT pair, rnk AS j, term FROM prs
                   JOIN tok ON tok.doc_id = pair + 1),
            lens AS (SELECT pair,
                        COALESCE((SELECT MAX(i) FROM ta
                                  WHERE ta.pair = prs.pair), 0) AS la,
                        COALESCE((SELECT MAX(j) FROM tb
                                  WHERE tb.pair = prs.pair), 0) AS lb
                     FROM prs),
            r(pair, i, j, val, c) AS (
                SELECT pair, 0, 0, 0, 1 FROM prs
                UNION ALL
                (WITH w AS (SELECT * FROM r),
                 spawn AS (
                    SELECT DISTINCT w.pair, w.i + 1 AS ni, w.j AS nj
                    FROM w JOIN lens USING (pair)
                    WHERE c = 1 AND w.i + 1 <= la
                    UNION
                    SELECT DISTINCT w.pair, w.i AS ni, w.j + 1 AS nj
                    FROM w JOIN lens USING (pair)
                    WHERE c = 1 AND w.j + 1 <= lb),
                 nxt AS (
                    SELECT s.pair, s.ni AS i, s.nj AS j,
                      CASE WHEN s.ni = 0 THEN lf.val + 1
                           WHEN s.nj = 0 THEN up.val + 1
                           ELSE least(up.val + 1, lf.val + 1,
                                      dg.val + CASE WHEN a.term
                                          = b.term THEN 0 ELSE 1 END)
                      END AS val
                    FROM spawn s
                    LEFT JOIN w up ON up.c = 1 AND up.pair = s.pair
                                   AND up.i = s.ni - 1 AND up.j = s.nj
                    LEFT JOIN w lf ON lf.c = 1 AND lf.pair = s.pair
                                   AND lf.i = s.ni AND lf.j = s.nj - 1
                    LEFT JOIN w dg ON dg.c = 0 AND dg.pair = s.pair
                                   AND dg.i = s.ni - 1
                                   AND dg.j = s.nj - 1
                    LEFT JOIN ta a ON a.pair = s.pair AND a.i = s.ni
                    LEFT JOIN tb b ON b.pair = s.pair AND b.j = s.nj)
                 SELECT pair, i, j, val, 1 FROM nxt
                 UNION ALL
                 SELECT w.pair, w.i, w.j, w.val, 0
                 FROM w JOIN lens USING (pair)
                 WHERE w.c = 1 AND w.i + w.j < la + lb))
            SELECT prs.pair AS doc_a, prs.pair + 1 AS doc_b,
                   CAST(lens.la AS BIGINT) AS n_tok_a,
                   CAST(lens.lb AS BIGINT) AS n_tok_b,
                   CAST(r.val AS BIGINT) AS edit_dist
            FROM r JOIN lens USING (pair) JOIN prs USING (pair)
            WHERE r.c = 1 AND r.i = la AND r.j = lb
            ORDER BY doc_a
        """,
        "rects_box_density": """
            WITH s AS (
              SELECT (s_suppkey*37) % 248 AS a, (s_suppkey*53) % 248 AS b,
                     s_suppkey % 3 + 1 AS sx, (s_suppkey*7) % 3 + 1 AS sy
              FROM supplier),
            p AS (
              SELECT DISTINCT a + i.range AS gx, b + j.range AS gy
              FROM s, range(0, 4) i, range(0, 4) j
              WHERE i.range <= sx AND j.range <= sy),
            d AS (
              SELECT p.gx + i.range - 2 AS gx, p.gy + j.range - 2 AS gy,
                     CAST(COUNT(*) AS BIGINT) AS density
              FROM p, range(0, 5) i, range(0, 5) j
              WHERE p.gx + i.range - 2 BETWEEN 0 AND 255
                AND p.gy + j.range - 2 BETWEEN 0 AND 255
              GROUP BY 1, 2)
            SELECT gx, gy, density FROM d
            WHERE (gx * 31 + gy * 17) % 13 = 0
            ORDER BY gx, gy
        """,
        "events_change_point": """
            WITH h AS (SELECT event_type,
                              datediff('hour', TIMESTAMP '1970-01-01',
                                       CAST(ts AS TIMESTAMP)) AS hour,
                              CAST(COUNT(*) AS BIGINT) AS n,
                              CAST(SUM(CAST(round(COALESCE(value, 0)
                                  * 100) AS BIGINT)) AS BIGINT) AS cents
                       FROM events GROUP BY 1, 2),
            c AS (SELECT event_type, hour,
                         SUM(n) OVER w AS n1, SUM(cents) OVER w AS s1,
                         SUM(n) OVER t AS nt, SUM(cents) OVER t AS st,
                         ROW_NUMBER() OVER (PARTITION BY event_type
                             ORDER BY hour DESC) AS from_end
                  FROM h
                  WINDOW w AS (PARTITION BY event_type ORDER BY hour),
                         t AS (PARTITION BY event_type)),
            sp AS (SELECT event_type, hour,
                          CAST(n1 AS HUGEINT) AS n1,
                          CAST(s1 AS HUGEINT) AS s1,
                          CAST(nt - n1 AS HUGEINT) AS n2,
                          CAST(st - s1 AS HUGEINT) AS s2
                   FROM c WHERE from_end > 1),
            sc AS (SELECT event_type, hour, n1, s1,
                          (s1 * n2 - s2 * n1) * (s1 * n2 - s2 * n1)
                              AS num,
                          n1 * n2 AS den
                   FROM sp)
            SELECT a.event_type, CAST(a.hour AS BIGINT) AS split_hour,
                   CAST(a.n1 AS BIGINT) AS n_before,
                   CAST(a.s1 AS BIGINT) AS cents_before
            FROM sc a
            WHERE NOT EXISTS (
                SELECT 1 FROM sc b
                WHERE b.event_type = a.event_type
                  AND (b.num * a.den > a.num * b.den
                       OR (b.num * a.den = a.num * b.den
                           AND b.hour < a.hour)))
            ORDER BY a.event_type
        """,
        "lineitem_qq_table": """
            WITH v AS (SELECT l_returnflag AS flag,
                              CAST(round(l_extendedprice * 100)
                                   AS BIGINT) AS c
                       FROM lineitem
                       WHERE l_returnflag IN ('A', 'N')),
            n AS (SELECT flag, CAST(COUNT(*) AS BIGINT) AS cnt
                  FROM v GROUP BY flag),
            ranked AS (SELECT flag, c,
                              ROW_NUMBER() OVER (PARTITION BY flag
                                  ORDER BY c) AS rnk
                       FROM v),
            g AS (SELECT k FROM unnest(generate_series(1, 19)) t(k)),
            want AS (SELECT n.flag, g.k,
                            GREATEST(CAST(ceil(g.k * n.cnt / 32.0)
                                AS BIGINT), 1) AS r
                     FROM n, g),
            hit AS (SELECT w.flag, w.k, ranked.c
                    FROM want w JOIN ranked
                      ON ranked.flag = w.flag AND ranked.rnk = w.r)
            SELECT k AS k32,
                   MAX(CASE WHEN flag = 'A' THEN c END) AS q_a,
                   MAX(CASE WHEN flag = 'N' THEN c END) AS q_n
            FROM hit GROUP BY k ORDER BY k32
        """,        "orders_dow_chisq": """
            WITH c AS (SELECT o_orderpriority AS pr,
                              (datediff('day', DATE '1970-01-01',
                               CAST(o_orderdate AS DATE)) + 4) % 7
                                  AS dow,
                              CAST(COUNT(*) AS BIGINT) AS o
                       FROM orders GROUP BY 1, 2),
            n AS (SELECT pr, CAST(SUM(o) AS BIGINT) AS n
                  FROM c GROUP BY pr),
            grid AS (SELECT n.pr, d.dow, n.n
                     FROM n CROSS JOIN
                          unnest(generate_series(0, 6)) d(dow)),
            full_ AS (SELECT grid.pr, grid.dow,
                             COALESCE(c.o, 0) AS o, grid.n
                      FROM grid LEFT JOIN c
                        ON c.pr = grid.pr AND c.dow = grid.dow)
            SELECT pr AS o_orderpriority, MAX(n) AS n,
                   CAST(SUM((7 * o - n) * (7 * o - n)) AS BIGINT)
                       AS chisq_num,
                   CAST(7 * MAX(n) AS BIGINT) AS chisq_den
            FROM full_ GROUP BY pr ORDER BY pr
        """,
        "lineitem_bootstrap_sums": """
            WITH r AS (SELECT l_orderkey * 8 + l_linenumber % 8 AS rid,
                              CAST(round(l_extendedprice * 100)
                                   AS BIGINT) AS cents
                       FROM lineitem),
            reps AS (SELECT b FROM unnest(generate_series(0, 15)) t(b)),
            w AS (SELECT b AS rep,
                         ((rid * 2654435761 + b * 40503) % 4294967296)
                             // 1073741824 AS h,
                         cents
                  FROM r, reps),
            ww AS (SELECT rep,
                          CASE WHEN h = 0 THEN 0
                               WHEN h = 3 THEN 2 ELSE 1 END AS wt,
                          cents
                   FROM w)
            SELECT rep, CAST(SUM(wt) AS BIGINT) AS n,
                   CAST(SUM(wt * cents) AS BIGINT) AS cents
            FROM ww GROUP BY rep ORDER BY rep
        """,
        "rects_containment_parent": f"""
            WITH pairs AS (
              SELECT c_custkey AS custkey, s_suppkey,
                     CAST((5005 + (s_suppkey % 7) * 3000)
                          * (4005 + (s_suppkey % 5) * 3000) AS BIGINT)
                         AS parent_area_mu
              FROM customer, supplier
              WHERE (-180.0 + (s_suppkey * 37) % 300) <= {_LON}
                AND ({_LON} + 0.5 + (c_custkey % 4) * 0.5)
                    <= (-180.0 + (s_suppkey * 37) % 300 + 5.0
                        + (s_suppkey % 7) * 3.0 + 0.005)
                AND (-85.0 + (s_suppkey * 53) % 160) <= {_LAT}
                AND ({_LAT} + 0.5 + (c_custkey % 3) * 0.5)
                    <= (-85.0 + (s_suppkey * 53) % 160 + 4.0
                        + (s_suppkey % 5) * 3.0 + 0.005))
            SELECT custkey, s_suppkey AS parent_suppkey,
                   parent_area_mu
            FROM (SELECT *, ROW_NUMBER() OVER (PARTITION BY custkey
                      ORDER BY parent_area_mu, s_suppkey) AS rk
                  FROM pairs)
            WHERE rk = 1 ORDER BY custkey
        """,
        "lineitem_sequence_gaps": """
            WITH per_o AS (SELECT l_orderkey,
                                  CAST(COUNT(*) AS BIGINT) AS n_rows,
                                  CAST(COUNT(DISTINCT l_linenumber)
                                       AS BIGINT) AS n_distinct,
                                  CAST(MAX(l_linenumber) AS BIGINT)
                                      AS mx,
                                  CAST(MIN(l_linenumber) AS BIGINT)
                                      AS mn
                           FROM lineitem GROUP BY l_orderkey),
            j AS (SELECT o.o_orderpriority,
                         CASE WHEN mx <> n_distinct OR mn <> 1
                              THEN 1 ELSE 0 END AS gap,
                         CASE WHEN NOT (mx <> n_distinct OR mn <> 1)
                                  AND n_rows <> n_distinct
                              THEN 1 ELSE 0 END AS dup_only,
                         CASE WHEN NOT (mx <> n_distinct OR mn <> 1)
                                  AND n_rows = n_distinct
                              THEN 1 ELSE 0 END AS clean
                  FROM per_o JOIN orders o
                    ON o.o_orderkey = per_o.l_orderkey)
            SELECT o_orderpriority,
                   CAST(COUNT(*) AS BIGINT) AS n_orders,
                   CAST(SUM(gap) AS BIGINT) AS n_gapped,
                   CAST(SUM(dup_only) AS BIGINT) AS n_dup_only,
                   CAST(SUM(clean) AS BIGINT) AS n_clean
            FROM j GROUP BY o_orderpriority ORDER BY o_orderpriority
        """,
        "events_sliding_median": """
            WITH e AS (SELECT user_id, event_id, epoch_us(ts) AS t_us,
                              CAST(round(COALESCE(value, 0) * 100)
                                   AS BIGINT) AS cents
                       FROM events),
            m AS (SELECT user_id,
                         CAST(median(cents) OVER (
                             PARTITION BY user_id
                             ORDER BY t_us, event_id
                             ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
                             AS BIGINT) AS med,
                         ROW_NUMBER() OVER (PARTITION BY user_id
                             ORDER BY t_us, event_id) AS rn
                  FROM e)
            SELECT user_id,
                   CAST(COUNT(*) AS BIGINT) AS n_windows,
                   CAST(SUM(med) AS BIGINT) AS sum_median
            FROM m WHERE rn >= 5 GROUP BY user_id ORDER BY user_id
        """,
        "events_ks_test": """
            WITH e AS (SELECT event_type,
                              CAST(round(value * 100) AS BIGINT) AS v,
                              CASE WHEN user_id % 2 = 0 THEN 0
                                   ELSE 1 END AS side
                       FROM events WHERE value IS NOT NULL),
            d AS (SELECT event_type, v,
                         CAST(SUM(CASE WHEN side = 0 THEN 1 ELSE 0 END)
                              AS BIGINT) AS na,
                         CAST(SUM(CASE WHEN side = 1 THEN 1 ELSE 0 END)
                              AS BIGINT) AS nb
                  FROM e GROUP BY event_type, v),
            c AS (SELECT event_type, v,
                         SUM(na) OVER w AS ca, SUM(nb) OVER w AS cb,
                         SUM(na) OVER t AS ta, SUM(nb) OVER t AS tb
                  FROM d
                  WINDOW w AS (PARTITION BY event_type ORDER BY v),
                         t AS (PARTITION BY event_type))
            SELECT event_type,
                   CAST(MAX(ta) AS BIGINT) AS n_a,
                   CAST(MAX(tb) AS BIGINT) AS n_b,
                   CAST(MAX(abs(ca * tb - cb * ta)) AS BIGINT)
                       AS d_num
            FROM c GROUP BY event_type ORDER BY event_type
        """,
        "events_bucket_skew": """
            WITH b AS (SELECT ((user_id % 1000003) * 2654435761)
                              % 4294967296 % 32 AS bucket
                       FROM events),
            g AS (SELECT i.range AS bucket FROM range(0, 32) i)
            SELECT g.bucket,
                   CAST(COALESCE(COUNT(b.bucket), 0) AS BIGINT) AS n
            FROM g LEFT JOIN b ON b.bucket = g.bucket
            GROUP BY g.bucket ORDER BY g.bucket
        """,
        "supplier_balance_pareto": """
            WITH s AS (SELECT s_suppkey,
                              CAST(round(s_acctbal * 100) AS BIGINT)
                                  AS c
                       FROM supplier),
            r AS (SELECT c, ROW_NUMBER() OVER (
                      ORDER BY c DESC, s_suppkey) AS rn,
                      SUM(c) OVER (ORDER BY c DESC, s_suppkey)
                          AS cum,
                      COUNT(*) OVER () AS n
                  FROM s),
            d AS (SELECT CAST(dd.d AS BIGINT) AS decile,
                         CAST(ceil(dd.d * r.n / 10.0) AS BIGINT)
                             AS rank
                  FROM (SELECT i.range + 1 AS d FROM range(0, 10) i)
                       dd, (SELECT MAX(n) AS n FROM r) r)
            SELECT d.decile, d.rank,
                   CAST(r.cum AS BIGINT) AS cum_cents
            FROM d JOIN r ON r.rn = d.rank ORDER BY d.decile
        """,
        "lineitem_discount_profile": """
            SELECT l_returnflag,
                   CAST(round(l_discount * 10000) AS BIGINT) AS bp,
                   CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(SUM(CAST(round(l_quantity) AS BIGINT))
                        AS BIGINT) AS sum_qty,
                   CAST(SUM(CAST(round(l_extendedprice * 100)
                            AS BIGINT)
                        * (10000 - CAST(round(l_discount * 10000)
                                        AS BIGINT))) AS BIGINT)
                       AS rev_micro
            FROM lineitem GROUP BY 1, 2 ORDER BY l_returnflag, bp
        """,
        "lineitem_weighted_median": """
            WITH v AS (SELECT l_returnflag,
                              CAST(round(l_extendedprice * 100)
                                   AS BIGINT) AS c,
                              CAST(round(l_quantity) AS BIGINT) AS q
                       FROM lineitem),
            d AS (SELECT l_returnflag, c,
                         CAST(SUM(q) AS BIGINT) AS w
                  FROM v GROUP BY l_returnflag, c),
            cw AS (SELECT l_returnflag, c,
                          SUM(w) OVER (PARTITION BY l_returnflag
                                       ORDER BY c) AS cum,
                          SUM(w) OVER (PARTITION BY l_returnflag)
                              AS tot
                   FROM d)
            SELECT l_returnflag,
                   CAST(MIN(c) AS BIGINT) AS wmedian,
                   CAST(MAX(tot) AS BIGINT) AS total_w
            FROM cw WHERE 2 * cum >= tot
            GROUP BY l_returnflag ORDER BY l_returnflag
        """,
        "events_hourly_trend": """
            WITH h AS (SELECT event_type,
                              datediff('hour', TIMESTAMP '1970-01-01',
                                       CAST(ts AS TIMESTAMP)) AS hour,
                              CAST(COUNT(*) AS BIGINT) AS y
                       FROM events GROUP BY 1, 2),
            b AS (SELECT MIN(hour) AS base FROM h),
            p AS (SELECT event_type,
                         CAST(hour - base AS BIGINT) AS x, y
                  FROM h, b),
            s AS (SELECT event_type,
                         CAST(COUNT(*) AS HUGEINT) AS n,
                         CAST(SUM(x) AS HUGEINT) AS sx,
                         CAST(SUM(y) AS HUGEINT) AS sy,
                         CAST(SUM(x * y) AS HUGEINT) AS sxy,
                         CAST(SUM(x * x) AS HUGEINT) AS sxx,
                         CAST(SUM(y * y) AS HUGEINT) AS syy
                  FROM p GROUP BY event_type)
            SELECT event_type,
                   CAST(n*sxy - sx*sy AS DOUBLE)
                   / sqrt(CAST(n*sxx - sx*sx AS DOUBLE)
                          * CAST(n*syy - sy*sy AS DOUBLE)) AS corr,
                   CAST(n*sxy - sx*sy AS DOUBLE)
                   / CAST(n*sxx - sx*sx AS DOUBLE) AS slope
            FROM s ORDER BY event_type
        """,
        "rects_line_of_sight": """
            WITH s AS (
              SELECT (s_suppkey*37) % 248 AS a, (s_suppkey*53) % 248 AS b,
                     s_suppkey % 3 + 1 AS sx, (s_suppkey*7) % 3 + 1 AS sy
              FROM supplier),
            p AS (
              SELECT DISTINCT a + i.range AS gx, b + j.range AS gy
              FROM s, range(0, 4) i, range(0, 4) j
              WHERE i.range <= sx AND j.range <= sy),
            dens AS (
              SELECT p.gx + i.range - 2 AS gx, p.gy + j.range - 2 AS gy,
                     CAST(COUNT(*) AS BIGINT) AS d
              FROM p, range(0, 5) i, range(0, 5) j
              WHERE p.gx + i.range - 2 BETWEEN 0 AND 255
                AND p.gy + j.range - 2 BETWEEN 0 AND 255
              GROUP BY 1, 2),
            pr AS (SELECT i.range AS pair,
                          (i.range*379) % 256 AS ax,
                          (i.range*523) % 256 AS ay,
                          ((i.range*691)+37) % 256 AS bx,
                          ((i.range*811)+91) % 256 AS by
                   FROM range(0, 48) i),
            st AS (SELECT pair, ax, ay, bx, by,
                       greatest(abs(bx - ax), abs(by - ay)) AS steps,
                       greatest(greatest(abs(bx - ax), abs(by - ay)),
                                1) AS dv
                   FROM pr),
            pts AS (SELECT pair, steps, t,
                       ax + CAST(floor(CAST(t * (bx - ax) AS DOUBLE)
                                       / dv) AS BIGINT) AS x,
                       ay + CAST(floor(CAST(t * (by - ay) AS DOUBLE)
                                       / dv) AS BIGINT) AS y
                    FROM st, unnest(generate_series(0, steps)) AS u(t)),
            e AS (SELECT pair, steps, t, COALESCE(d.d, 0) AS z
                  FROM pts LEFT JOIN dens d
                    ON d.gx = pts.x AND d.gy = pts.y),
            ends AS (SELECT pair,
                            MAX(CASE WHEN t = 0 THEN z END) + 2 AS za,
                            MAX(CASE WHEN t = steps THEN z END) + 2
                                AS zb
                     FROM e GROUP BY pair),
            m AS (SELECT e.pair, e.steps,
                     CAST(SUM(z) AS BIGINT) AS path_mass,
                     CAST(SUM(CASE WHEN t > 0 AND t < steps
                          AND z * steps >= za * (steps - t) + zb * t
                          THEN 1 ELSE 0 END) AS BIGINT) AS n_block,
                     CAST(COALESCE(MIN(CASE WHEN t > 0 AND t < steps
                          AND z * steps >= za * (steps - t) + zb * t
                          THEN t END), 0) AS BIGINT) AS first_block
                  FROM e JOIN ends USING (pair)
                  GROUP BY e.pair, e.steps)
            SELECT pair, CAST(steps AS BIGINT) AS steps, path_mass,
                   n_block, first_block,
                   CAST(CASE WHEN n_block = 0 THEN 1 ELSE 0 END
                        AS BIGINT) AS visible
            FROM m ORDER BY pair
        """,
        "orders_fd_audit": """
            WITH c1 AS (SELECT o_orderkey AS a,
                               CAST(COUNT(DISTINCT o_custkey) AS BIGINT) AS nb
                        FROM orders GROUP BY 1),
            c2 AS (SELECT o_custkey AS a,
                          CAST(COUNT(DISTINCT o_orderstatus) AS BIGINT) AS nb
                   FROM orders GROUP BY 1),
            c3 AS (SELECT o_orderdate AS a,
                          CAST(COUNT(DISTINCT o_orderpriority) AS BIGINT) AS nb
                   FROM orders GROUP BY 1),
            c4 AS (SELECT o_orderpriority AS a,
                          CAST(COUNT(DISTINCT o_orderstatus) AS BIGINT) AS nb
                   FROM orders GROUP BY 1),
            u AS (
              SELECT 'o_orderkey->o_custkey' AS fd, nb FROM c1
              UNION ALL
              SELECT 'o_custkey->o_orderstatus' AS fd, nb FROM c2
              UNION ALL
              SELECT 'o_orderdate->o_orderpriority' AS fd, nb FROM c3
              UNION ALL
              SELECT 'o_orderpriority->o_orderstatus' AS fd, nb FROM c4)
            SELECT fd,
                   CAST(COUNT(*) AS BIGINT) AS n_det,
                   CAST(SUM(CASE WHEN nb > 1 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_viol_det,
                   CAST(SUM(nb - 1) AS BIGINT) AS extra_pairs,
                   CAST(CASE WHEN SUM(nb - 1) = 0 THEN 1 ELSE 0 END
                        AS BIGINT) AS holds
            FROM u GROUP BY fd ORDER BY fd
        """,
        "events_mann_kendall": """
            WITH h AS (SELECT event_type,
                              datediff('hour', TIMESTAMP '1970-01-01',
                                       CAST(ts AS TIMESTAMP)) AS hour,
                              CAST(COUNT(*) AS BIGINT) AS y
                       FROM events GROUP BY 1, 2),
            s AS (SELECT a.event_type,
                         CAST(SUM(SIGN(b.y - a.y)) AS BIGINT) AS s
                  FROM h a JOIN h b
                    ON a.event_type = b.event_type
                   AND a.hour < b.hour
                  GROUP BY a.event_type),
            ties AS (SELECT event_type, y, COUNT(*) AS c
                     FROM h GROUP BY 1, 2),
            v AS (SELECT event_type,
                         CAST(SUM(c) AS BIGINT) AS n,
                         CAST(SUM(c * (c - 1) * (2 * c + 5))
                              AS BIGINT) AS tie_term
                  FROM ties GROUP BY event_type)
            SELECT v.event_type, COALESCE(s.s, 0) AS s,
                   n * (n - 1) * (2 * n + 5) - tie_term AS var18,
                   n
            FROM v LEFT JOIN s USING (event_type)
            ORDER BY event_type
        """,
        "events_theil_sen": """
            WITH h AS (SELECT event_type,
                              datediff('hour', TIMESTAMP '1970-01-01',
                                       CAST(ts AS TIMESTAMP)) AS hour,
                              CAST(COUNT(*) AS BIGINT) AS y
                       FROM events GROUP BY 1, 2),
            p AS (SELECT a.event_type,
                         b.y - a.y AS dy, b.hour - a.hour AS dx,
                         CAST(b.y - a.y AS DOUBLE)
                         / CAST(b.hour - a.hour AS DOUBLE) AS slope
                  FROM h a JOIN h b
                    ON a.event_type = b.event_type
                   AND a.hour < b.hour),
            r AS (SELECT event_type, slope,
                         ROW_NUMBER() OVER (PARTITION BY event_type
                             ORDER BY slope, dy, dx) AS rn,
                         COUNT(*) OVER (PARTITION BY event_type) AS m
                  FROM p)
            SELECT event_type, slope, m AS n_pairs
            FROM r WHERE rn = (m + 1) // 2
            ORDER BY event_type
        """,
        "suppliers_temporal_reach": """
            WITH RECURSIVE
            nn AS (SELECT COUNT(*) AS n FROM supplier),
            e AS (SELECT s_suppkey AS u,
                         (s_suppkey % n) + 1 AS v
                  FROM supplier, nn
                  UNION ALL
                  SELECT s_suppkey, ((s_suppkey * 3) % n) + 1
                  FROM supplier, nn),
            ed AS (SELECT u, v, (u * 13 + v * 7) % 240 AS t
                   FROM e WHERE u <> v),
            r(node, arr) AS (
                SELECT 1, 0
                UNION
                SELECT ed.v, MIN(ed.t)
                FROM r JOIN ed ON ed.u = r.node AND ed.t >= r.arr
                GROUP BY ed.v
            )
            SELECT node, CAST(MIN(arr) AS BIGINT) AS arrival
            FROM r GROUP BY node ORDER BY node
        """,
        "events_time_to_convert": """
            WITH fv AS (SELECT user_id,
                               MIN(epoch_us(ts)) AS first_view
                        FROM events WHERE event_type = 'view'
                        GROUP BY user_id),
            fp AS (SELECT e.user_id,
                          MIN(epoch_us(e.ts)) AS first_purchase
                   FROM events e JOIN fv ON fv.user_id = e.user_id
                   WHERE e.event_type = 'purchase'
                     AND epoch_us(e.ts) >= fv.first_view
                   GROUP BY e.user_id),
            g AS (SELECT (fp.first_purchase - fv.first_view)
                         // 1000000 AS gap_s
                  FROM fv JOIN fp USING (user_id)),
            n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM g),
            r AS (SELECT gap_s, ROW_NUMBER() OVER (ORDER BY gap_s)
                      AS rn FROM g)
            SELECT q, CAST(gap_seconds AS BIGINT) AS gap_seconds,
                   n.n AS n_converters
            FROM (
              SELECT 25 AS q, (SELECT gap_s FROM r, n WHERE rn =
                  GREATEST(CAST(ceil(1 * n / 4.0) AS BIGINT), 1))
                  AS gap_seconds
              UNION ALL
              SELECT 50, (SELECT gap_s FROM r, n WHERE rn =
                  GREATEST(CAST(ceil(1 * n / 2.0) AS BIGINT), 1))
              UNION ALL
              SELECT 75, (SELECT gap_s FROM r, n WHERE rn =
                  GREATEST(CAST(ceil(3 * n / 4.0) AS BIGINT), 1))
            ), n ORDER BY q
        """,
        "customers_flow_octants": """
            WITH c AS (SELECT c_custkey,
                              (c_custkey * 7919) % 36000 - 18000 AS x,
                              (c_custkey * 104729) % 17000 - 8500 AS y
                       FROM customer),
            s AS (SELECT s_suppkey,
                         (s_suppkey * 7919) % 36000 - 18000 AS fx,
                         (s_suppkey * 104729) % 17000 - 8500 AS fy
                  FROM supplier),
            nearest AS (SELECT * FROM (
                SELECT c.c_custkey, s.fx - c.x AS dx, s.fy - c.y AS dy,
                       ROW_NUMBER() OVER (PARTITION BY c.c_custkey
                           ORDER BY (c.x - s.fx) * (c.x - s.fx)
                                  + (c.y - s.fy) * (c.y - s.fy),
                                    s.s_suppkey) AS rk
                FROM c, s) WHERE rk = 1),
            o AS (SELECT CASE
                    WHEN dx >= 0 AND dy >= 0 THEN
                         CASE WHEN abs(dx) >= abs(dy) THEN 0 ELSE 1 END
                    WHEN dx < 0 AND dy >= 0 THEN
                         CASE WHEN abs(dy) > abs(dx) THEN 2 ELSE 3 END
                    WHEN dx < 0 AND dy < 0 THEN
                         CASE WHEN abs(dx) >= abs(dy) THEN 4 ELSE 5 END
                    ELSE CASE WHEN abs(dy) > abs(dx) THEN 6 ELSE 7 END
                  END AS octant,
                  dx * dx + dy * dy AS d2
                  FROM nearest),
            g AS (SELECT i.range AS octant FROM range(0, 8) i)
            SELECT g.octant,
                   CAST(COALESCE(COUNT(o.octant), 0) AS BIGINT) AS n,
                   CAST(COALESCE(SUM(o.d2), 0) AS BIGINT) AS d2_mass
            FROM g LEFT JOIN o ON o.octant = g.octant
            GROUP BY g.octant ORDER BY g.octant
        """,
        "rects_density_probe": """
            WITH s AS (
              SELECT (s_suppkey*37) % 248 AS a, (s_suppkey*53) % 248 AS b,
                     s_suppkey % 3 + 1 AS sx, (s_suppkey*7) % 3 + 1 AS sy
              FROM supplier),
            p AS (
              SELECT DISTINCT a + i.range AS gx, b + j.range AS gy
              FROM s, range(0, 4) i, range(0, 4) j
              WHERE i.range <= sx AND j.range <= sy),
            dens AS (
              SELECT p.gx + i.range - 2 AS gx, p.gy + j.range - 2 AS gy,
                     CAST(COUNT(*) AS BIGINT) AS d
              FROM p, range(0, 5) i, range(0, 5) j
              WHERE p.gx + i.range - 2 BETWEEN 0 AND 255
                AND p.gy + j.range - 2 BETWEEN 0 AND 255
              GROUP BY 1, 2),
            pr AS (SELECT i.range AS probe,
                          (i.range * 1013) % (4 * 255) AS x4,
                          (i.range * 2027) % (4 * 255) AS y4
                   FROM range(0, 64) i),
            q AS (SELECT probe, x4, y4,
                         x4 // 4 AS x0, y4 // 4 AS y0,
                         x4 % 4 AS fx, y4 % 4 AS fy
                  FROM pr)
            SELECT probe, x4, y4,
                   CAST((4 - fx) * (4 - fy) * COALESCE(d00.d, 0)
                      + fx * (4 - fy) * COALESCE(d10.d, 0)
                      + (4 - fx) * fy * COALESCE(d01.d, 0)
                      + fx * fy * COALESCE(d11.d, 0) AS BIGINT)
                       AS num16
            FROM q
            LEFT JOIN dens d00 ON d00.gx = q.x0 AND d00.gy = q.y0
            LEFT JOIN dens d10 ON d10.gx = q.x0 + 1 AND d10.gy = q.y0
            LEFT JOIN dens d01 ON d01.gx = q.x0 AND d01.gy = q.y0 + 1
            LEFT JOIN dens d11 ON d11.gx = q.x0 + 1
                              AND d11.gy = q.y0 + 1
            ORDER BY probe
        """,
        "lineitem_qty_power_sums": """
            WITH v AS (SELECT l_returnflag,
                              CAST(round(l_quantity) AS BIGINT) AS q
                       FROM lineitem)
            SELECT l_returnflag,
                   CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(SUM(q) AS BIGINT) AS s1,
                   CAST(SUM(q * q) AS BIGINT) AS s2,
                   CAST(SUM(q * q * q) AS BIGINT) AS s3,
                   CAST(SUM(q * q * q * q) AS BIGINT) AS s4
            FROM v GROUP BY l_returnflag ORDER BY l_returnflag
        """,
        "suppliers_balance_tier_theta": """
            WITH tiers(tier, lo_c, hi_c) AS (VALUES
                (0, -100000, 230000), (1, 120000, 450000),
                (2, 340000, 670000), (3, 560000, 890000),
                (4, 780000, 1110000)),
            s AS (SELECT s_suppkey, s_nationkey,
                         CAST(round(s_acctbal * 100) AS BIGINT) AS bal_c
                  FROM supplier)
            SELECT s_suppkey, CAST(tier AS BIGINT) AS tier, bal_c
            FROM s JOIN tiers
              ON bal_c >= lo_c AND bal_c < hi_c
                 AND s_nationkey % 5 <> tier
            ORDER BY s_suppkey, tier
        """,
    }
