//! The 22 TPC-H queries as SQL text, in the dialect `vectorh_planner::sql`
//! accepts (explicit `JOIN ... ON` instead of comma-list FROM clauses).
//!
//! They are the only form of the queries: the engine, the baselines, the
//! figure harnesses and the chaos corpus all run these texts. Each one
//! exercises part of the SQL surface (scalar/IN/EXISTS subqueries, derived
//! tables, LEFT OUTER JOIN, HAVING, CASE WHEN, EXTRACT/date arithmetic,
//! SUBSTRING, DISTINCT), and `tests/sql_conformance.rs` pins the exact
//! answer of every one, so a change to a text, the parser or the executor
//! that moves an answer fails there.

/// How many TPC-H queries there are; [`sql_text`] answers `1..=N_QUERIES`.
pub const N_QUERIES: usize = 22;

/// The front-door workload mix: Q1 (scan-heavy aggregation), Q6
/// (selective filter), Q12 (join + aggregation) — one query per class,
/// cycled by the load generator and the `frontdoor` chaos phase.
pub const FRONTDOOR_MIX: [usize; 3] = [1, 6, 12];

/// The SQL texts of [`FRONTDOOR_MIX`], in order.
pub fn frontdoor_mix_texts() -> [&'static str; 3] {
    [
        sql_text(FRONTDOOR_MIX[0]).unwrap(),
        sql_text(FRONTDOOR_MIX[1]).unwrap(),
        sql_text(FRONTDOOR_MIX[2]).unwrap(),
    ]
}

/// The SQL text of TPC-H query `n` (1-based), or `None` out of range.
pub fn sql_text(n: usize) -> Option<&'static str> {
    Some(match n {
        1 => Q1,
        2 => Q2,
        3 => Q3,
        4 => Q4,
        5 => Q5,
        6 => Q6,
        7 => Q7,
        8 => Q8,
        9 => Q9,
        10 => Q10,
        11 => Q11,
        12 => Q12,
        13 => Q13,
        14 => Q14,
        15 => Q15,
        16 => Q16,
        17 => Q17,
        18 => Q18,
        19 => Q19,
        20 => Q20,
        21 => Q21,
        22 => Q22,
        _ => return None,
    })
}

const Q1: &str = "\
SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty, \
       sum(l_extendedprice) AS sum_base_price, \
       sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price, \
       sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, \
       avg(l_quantity) AS avg_qty, avg(l_extendedprice) AS avg_price, \
       avg(l_discount) AS avg_disc, count(*) AS count_order \
FROM lineitem \
WHERE l_shipdate <= date '1998-12-01' - interval '90' day \
GROUP BY l_returnflag, l_linestatus \
ORDER BY l_returnflag, l_linestatus";

const Q2: &str = "\
SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone, s_comment \
FROM partsupp \
JOIN supplier ON s_suppkey = ps_suppkey \
JOIN nation ON n_nationkey = s_nationkey \
JOIN region ON r_regionkey = n_regionkey \
JOIN part ON p_partkey = ps_partkey \
WHERE r_name = 'EUROPE' AND p_size = 15 AND p_type LIKE '%BRASS' \
  AND ps_supplycost = (SELECT min(ps2.ps_supplycost) \
                       FROM partsupp ps2 \
                       JOIN supplier s2 ON s2.s_suppkey = ps2.ps_suppkey \
                       JOIN nation n2 ON n2.n_nationkey = s2.s_nationkey \
                       JOIN region r2 ON r2.r_regionkey = n2.n_regionkey \
                       WHERE r2.r_name = 'EUROPE' AND ps2.ps_partkey = p_partkey) \
ORDER BY s_acctbal DESC, n_name, s_name, p_partkey \
LIMIT 100";

const Q3: &str = "\
SELECT l_orderkey, o_orderdate, o_shippriority, \
       sum(l_extendedprice * (1 - l_discount)) AS revenue \
FROM lineitem \
JOIN orders ON o_orderkey = l_orderkey \
JOIN customer ON c_custkey = o_custkey \
WHERE l_shipdate > date '1995-03-15' AND o_orderdate < date '1995-03-15' \
  AND c_mktsegment = 'BUILDING' \
GROUP BY l_orderkey, o_orderdate, o_shippriority \
ORDER BY revenue DESC, o_orderdate \
LIMIT 10";

const Q4: &str = "\
SELECT o_orderpriority, count(*) AS order_count \
FROM orders \
WHERE o_orderdate >= date '1993-07-01' AND o_orderdate < date '1993-10-01' \
  AND EXISTS (SELECT * FROM lineitem \
              WHERE l_commitdate < l_receiptdate AND l_orderkey = o_orderkey) \
GROUP BY o_orderpriority \
ORDER BY o_orderpriority";

const Q5: &str = "\
SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue \
FROM lineitem \
JOIN orders ON o_orderkey = l_orderkey \
JOIN customer ON c_custkey = o_custkey \
JOIN supplier ON s_suppkey = l_suppkey AND s_nationkey = c_nationkey \
JOIN nation ON n_nationkey = s_nationkey \
JOIN region ON r_regionkey = n_regionkey \
WHERE o_orderdate >= date '1994-01-01' AND o_orderdate < date '1995-01-01' \
  AND r_name = 'ASIA' \
GROUP BY n_name \
ORDER BY revenue DESC";

const Q6: &str = "\
SELECT sum(l_extendedprice * l_discount) AS revenue \
FROM lineitem \
WHERE l_shipdate >= date '1994-01-01' AND l_shipdate < date '1995-01-01' \
  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24";

const Q7: &str = "\
SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation, \
       extract(year FROM l_shipdate) AS l_year, \
       sum(l_extendedprice * (1 - l_discount)) AS revenue \
FROM lineitem \
JOIN orders ON o_orderkey = l_orderkey \
JOIN supplier ON s_suppkey = l_suppkey \
JOIN customer ON c_custkey = o_custkey \
JOIN nation n1 ON n1.n_nationkey = s_nationkey \
JOIN nation n2 ON n2.n_nationkey = c_nationkey \
WHERE l_shipdate BETWEEN date '1995-01-01' AND date '1996-12-31' \
  AND ((n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY') \
       OR (n1.n_name = 'GERMANY' AND n2.n_name = 'FRANCE')) \
GROUP BY n1.n_name, n2.n_name, extract(year FROM l_shipdate) \
ORDER BY supp_nation, cust_nation, l_year";

const Q8: &str = "\
SELECT o_year, \
       sum(CASE WHEN nation = 'BRAZIL' THEN volume ELSE 0 END) / sum(volume) \
         AS mkt_share \
FROM (SELECT extract(year FROM o_orderdate) AS o_year, \
             l_extendedprice * (1 - l_discount) AS volume, \
             n2.n_name AS nation \
      FROM lineitem \
      JOIN part ON p_partkey = l_partkey \
      JOIN orders ON o_orderkey = l_orderkey \
      JOIN customer ON c_custkey = o_custkey \
      JOIN nation n1 ON n1.n_nationkey = c_nationkey \
      JOIN region ON r_regionkey = n1.n_regionkey \
      JOIN supplier ON s_suppkey = l_suppkey \
      JOIN nation n2 ON n2.n_nationkey = s_nationkey \
      WHERE p_type = 'ECONOMY ANODIZED STEEL' \
        AND o_orderdate BETWEEN date '1995-01-01' AND date '1996-12-31' \
        AND r_name = 'AMERICA') AS all_nations \
GROUP BY o_year \
ORDER BY o_year";

const Q9: &str = "\
SELECT nation, o_year, sum(amount) AS sum_profit \
FROM (SELECT n_name AS nation, extract(year FROM o_orderdate) AS o_year, \
             l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity \
               AS amount \
      FROM lineitem \
      JOIN part ON p_partkey = l_partkey \
      JOIN partsupp ON ps_partkey = l_partkey AND ps_suppkey = l_suppkey \
      JOIN supplier ON s_suppkey = l_suppkey \
      JOIN orders ON o_orderkey = l_orderkey \
      JOIN nation ON n_nationkey = s_nationkey \
      WHERE p_name LIKE '%green%') AS profit \
GROUP BY nation, o_year \
ORDER BY nation, o_year DESC";

const Q10: &str = "\
SELECT c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment, \
       sum(l_extendedprice * (1 - l_discount)) AS revenue \
FROM lineitem \
JOIN orders ON o_orderkey = l_orderkey \
JOIN customer ON c_custkey = o_custkey \
JOIN nation ON n_nationkey = c_nationkey \
WHERE l_returnflag = 'R' \
  AND o_orderdate >= date '1993-10-01' AND o_orderdate < date '1994-01-01' \
GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment \
ORDER BY revenue DESC \
LIMIT 20";

const Q11: &str = "\
SELECT ps_partkey, sum(ps_supplycost * ps_availqty) AS value \
FROM partsupp \
JOIN supplier ON s_suppkey = ps_suppkey \
JOIN nation ON n_nationkey = s_nationkey \
WHERE n_name = 'GERMANY' \
GROUP BY ps_partkey \
HAVING sum(ps_supplycost * ps_availqty) > \
       (SELECT sum(ps2.ps_supplycost * ps2.ps_availqty) * 0.0001 \
        FROM partsupp ps2 \
        JOIN supplier s2 ON s2.s_suppkey = ps2.ps_suppkey \
        JOIN nation n2 ON n2.n_nationkey = s2.s_nationkey \
        WHERE n2.n_name = 'GERMANY') \
ORDER BY value DESC";

const Q12: &str = "\
SELECT l_shipmode, \
       sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 1 ELSE 0 END) \
         AS high_line_count, \
       sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 0 ELSE 1 END) \
         AS low_line_count \
FROM lineitem \
JOIN orders ON o_orderkey = l_orderkey \
WHERE l_shipmode IN ('MAIL', 'SHIP') AND l_commitdate < l_receiptdate \
  AND l_shipdate < l_commitdate \
  AND l_receiptdate >= date '1994-01-01' AND l_receiptdate < date '1995-01-01' \
GROUP BY l_shipmode \
ORDER BY l_shipmode";

const Q13: &str = "\
SELECT c_count, count(*) AS custdist \
FROM (SELECT c_custkey, count(o_orderkey) AS c_count \
      FROM customer \
      LEFT OUTER JOIN orders ON c_custkey = o_custkey \
                            AND o_comment NOT LIKE '%special%requests%' \
      GROUP BY c_custkey) AS c_orders \
GROUP BY c_count \
ORDER BY custdist DESC, c_count DESC";

const Q14: &str = "\
SELECT 100.00 * (sum(CASE WHEN p_type LIKE 'PROMO%' \
                          THEN l_extendedprice * (1 - l_discount) \
                          ELSE 0 END) \
                 / sum(l_extendedprice * (1 - l_discount))) AS promo_revenue \
FROM lineitem \
JOIN part ON p_partkey = l_partkey \
WHERE l_shipdate >= date '1995-09-01' AND l_shipdate < date '1995-10-01'";

const Q15: &str = "\
SELECT s_suppkey, s_name, s_address, s_phone, total_revenue \
FROM supplier \
JOIN (SELECT l_suppkey AS supplier_no, \
             sum(l_extendedprice * (1 - l_discount)) AS total_revenue \
      FROM lineitem \
      WHERE l_shipdate >= date '1996-01-01' AND l_shipdate < date '1996-04-01' \
      GROUP BY l_suppkey) AS revenue ON s_suppkey = supplier_no \
WHERE total_revenue = \
      (SELECT max(total_revenue2) \
       FROM (SELECT l_suppkey AS supplier_no2, \
                    sum(l_extendedprice * (1 - l_discount)) AS total_revenue2 \
             FROM lineitem \
             WHERE l_shipdate >= date '1996-01-01' \
               AND l_shipdate < date '1996-04-01' \
             GROUP BY l_suppkey) AS revenue2) \
ORDER BY s_suppkey";

const Q16: &str = "\
SELECT p_brand, p_type, p_size, count(DISTINCT ps_suppkey) AS supplier_cnt \
FROM partsupp \
JOIN part ON p_partkey = ps_partkey \
WHERE p_brand <> 'Brand#45' AND p_type NOT LIKE 'MEDIUM POLISHED%' \
  AND p_size IN (49, 14, 23, 45, 19, 3, 36, 9) \
  AND ps_suppkey NOT IN (SELECT s_suppkey FROM supplier \
                         WHERE s_comment LIKE '%Customer%Complaints%') \
GROUP BY p_brand, p_type, p_size \
ORDER BY supplier_cnt DESC, p_brand, p_type, p_size";

const Q17: &str = "\
SELECT sum(l_extendedprice) / 7.0 AS avg_yearly \
FROM lineitem \
JOIN part ON p_partkey = l_partkey \
WHERE p_brand = 'Brand#23' AND p_container = 'MED BOX' \
  AND l_quantity < (SELECT 0.2 * avg(l2.l_quantity) FROM lineitem l2 \
                    WHERE l2.l_partkey = p_partkey)";

const Q18: &str = "\
SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, \
       sum(l_quantity) AS total_qty \
FROM orders \
JOIN customer ON c_custkey = o_custkey \
JOIN lineitem ON l_orderkey = o_orderkey \
WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem \
                     GROUP BY l_orderkey HAVING sum(l_quantity) > 300) \
GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice \
ORDER BY o_totalprice DESC, o_orderdate \
LIMIT 100";

const Q19: &str = "\
SELECT sum(l_extendedprice * (1 - l_discount)) AS revenue \
FROM lineitem \
JOIN part ON p_partkey = l_partkey \
WHERE l_shipmode IN ('AIR', 'REG AIR') AND l_shipinstruct = 'DELIVER IN PERSON' \
  AND ((p_brand = 'Brand#12' \
        AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG') \
        AND l_quantity BETWEEN 1 AND 11 AND p_size BETWEEN 1 AND 5) \
       OR (p_brand = 'Brand#23' \
           AND p_container IN ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK') \
           AND l_quantity BETWEEN 10 AND 20 AND p_size BETWEEN 1 AND 10) \
       OR (p_brand = 'Brand#34' \
           AND p_container IN ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG') \
           AND l_quantity BETWEEN 20 AND 30 AND p_size BETWEEN 1 AND 15))";

const Q20: &str = "\
SELECT s_name, s_address \
FROM supplier \
JOIN nation ON n_nationkey = s_nationkey \
WHERE n_name = 'CANADA' \
  AND s_suppkey IN \
      (SELECT ps_suppkey FROM partsupp \
       WHERE ps_partkey IN (SELECT p_partkey FROM part \
                            WHERE p_name LIKE 'forest%') \
         AND ps_availqty > (SELECT 0.5 * sum(l_quantity) FROM lineitem \
                            WHERE l_partkey = ps_partkey \
                              AND l_suppkey = ps_suppkey \
                              AND l_shipdate >= date '1994-01-01' \
                              AND l_shipdate < date '1995-01-01')) \
ORDER BY s_name";

const Q21: &str = "\
SELECT s_name, count(*) AS numwait \
FROM lineitem l1 \
JOIN orders ON o_orderkey = l1.l_orderkey \
JOIN supplier ON s_suppkey = l1.l_suppkey \
JOIN nation ON n_nationkey = s_nationkey \
WHERE o_orderstatus = 'F' AND l1.l_receiptdate > l1.l_commitdate \
  AND n_name = 'SAUDI ARABIA' \
  AND EXISTS (SELECT * FROM lineitem l2 \
              WHERE l2.l_orderkey = l1.l_orderkey \
                AND l2.l_suppkey <> l1.l_suppkey) \
  AND NOT EXISTS (SELECT * FROM lineitem l3 \
                  WHERE l3.l_receiptdate > l3.l_commitdate \
                    AND l3.l_orderkey = l1.l_orderkey \
                    AND l3.l_suppkey <> l1.l_suppkey) \
GROUP BY s_name \
ORDER BY numwait DESC, s_name \
LIMIT 100";

const Q22: &str = "\
SELECT cntrycode, count(*) AS numcust, sum(acctbal) AS totacctbal \
FROM (SELECT substring(c_phone FROM 1 FOR 2) AS cntrycode, c_acctbal AS acctbal \
      FROM customer \
      WHERE substring(c_phone FROM 1 FOR 2) IN \
            ('13', '31', '23', '29', '30', '18', '17') \
        AND c_acctbal > (SELECT avg(c2.c_acctbal) FROM customer c2 \
                         WHERE c2.c_acctbal > 0.00 \
                           AND substring(c2.c_phone FROM 1 FOR 2) IN \
                               ('13', '31', '23', '29', '30', '18', '17')) \
        AND NOT EXISTS (SELECT * FROM orders WHERE o_custkey = c_custkey)) \
     AS custsale \
GROUP BY cntrycode \
ORDER BY cntrycode";
