package repro.coding

import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.TestFrames
import repro.baselines.{DracoLike, ParticleCodec, Tmc13Like, ZfpLike}

/** Byte-identity gate for the §6.2.2 coding chain itself. The archive
  * cells of `GoldenArchiveSpec` stay far below the alphabet limit and never
  * reach wide fixed widths, so this spec pins the SHA-256 of `IntCoder`
  * output (automatic choice and both forced methods, plus the plan's
  * `(fixedSize, huffmanSize)`, the exact encoded sizes) on fixed arrays that hit every branch of the
  * encoder: empty and singleton arrays, one symbol, width 0, tie-heavy
  * histograms whose Huffman code depends on how weight ties are broken
  * (in first-occurrence order), exactly 4096 and 4097 distinct
  * codes (dense and sparse), codes ≥ 2^16, fixed widths 57–63, and codes
  * ≥ 2^63, which fixed-length coding rejects. Each array runs with delta
  * off, with delta on, and as its prefix sum with delta on (so the coded
  * symbols are the same as with delta off). The payloads of the baselines
  * that share `IntCoder`/`BitWriter` are pinned too.
  */
class CoderGoldenSpec extends AnyFunSuite {

  private def sha256(bytes: Array[Byte]): String =
    MessageDigest.getInstance("SHA-256").digest(bytes).map("%02x".format(_)).mkString

  /** The digest of `f`'s bytes, or the exception it raises. */
  private def outcome(f: => Array[Byte]): String =
    try sha256(f).take(16)
    catch { case e: IllegalArgumentException => s"IAE(${e.getMessage})" }

  private def cell(a: Array[Long], delta: Boolean): String = {
    val costs =
      try { val plan = IntCoder.plan(a, delta); (plan.fixedSize, plan.huffmanSize).toString }
      catch { case e: IllegalArgumentException => s"IAE(${e.getMessage})" }
    Seq(
      "auto="  + outcome(IntCoder.encode(a, delta)),
      "huff="  + outcome(IntCoder.encodeForced(a, delta, useHuffman = true)),
      "fixed=" + outcome(IntCoder.encodeForced(a, delta, useHuffman = false)),
      "costs=" + costs).mkString(" ")
  }

  private def prefixSum(a: Array[Long]): Array[Long] = a.scanLeft(0L)(_ + _).tail

  private def shuffled(a: Array[Long], seed: Long): Array[Long] = {
    val rng = new java.util.Random(seed)
    val out = a.clone()
    var i = out.length - 1
    while (i > 0) {
      val j = rng.nextInt(i + 1)
      val t = out(i); out(i) = out(j); out(j) = t
      i -= 1
    }
    out
  }

  /** `k` distinct symbols `sym(0..k-1)`, one of each, plus `extra` copies
    * of `sym(0)`, shuffled. */
  private def alphabet(k: Int, extra: Int, sym: Int => Long, seed: Long): Array[Long] =
    shuffled(Array.tabulate(k)(sym) ++ Array.fill(extra)(sym(0)), seed)

  /** Values whose zigzag codes need exactly `w` bits. */
  private def ofWidth(w: Int, n: Int, seed: Long): Array[Long] = {
    val rng  = new java.util.Random(seed)
    val half = 1L << (w - 2)
    Array.tabulate(n)(i => if (i == n / 2) half else Math.floorMod(rng.nextLong(), 2 * half) - half)
  }

  private val arrays: Seq[(String, Array[Long])] = Seq(
    "n=0"                              -> Array.emptyLongArray,
    "n=1"                              -> Array(123456789L),
    "n=1 negative"                     -> Array(-42L),
    "single symbol"                    -> Array.fill(1000)(7L),
    "all zeros (width 0)"              -> Array.fill(777)(0L),
    "16-symbol uniform, ties"          -> Array.tabulate(1024)(i => ((i * 7) % 16).toLong),
    "16-symbol uniform, shuffled"      -> shuffled(Array.tabulate(1024)(i => (i % 16).toLong - 8), 3),
    "16 wide symbols, uniform"         -> shuffled(Array.tabulate(1024)(i => (i % 16) * 982451653L - 7000000000L), 4),
    "13-symbol uniform, ties"          -> shuffled(Array.tabulate(1300)(i => (i % 13).toLong), 5),
    "13 wide symbols, uniform"         -> shuffled(Array.tabulate(1300)(i => (i % 13) * 7919L * 65537L), 12),
    "4096 distinct codes, dense"       -> alphabet(4096, 30000, i => (i - 2048).toLong, 6),
    "4097 distinct codes, dense"       -> alphabet(4097, 30000, i => (i - 2048).toLong, 7),
    "4096 distinct codes, sparse"      -> alphabet(4096, 30000, i => i * 100003L, 8),
    "4097 distinct codes, sparse"      -> alphabet(4097, 30000, i => i * 100003L, 9),
    "codes >= 2^16, few distinct"      -> {
      val rng  = new java.util.Random(10)
      val syms = Array(100000L, -70000L, 1L << 40, 5L, -(1L << 50))
      Array.fill(3000)(syms(math.min(rng.nextInt(8), 4)))
    },
    "codes >= 2^63"                    -> Array(Long.MinValue, 0L, 5L, Long.MinValue),
    "codes >= 2^63, many distinct"     -> shuffled(Array.tabulate(2000)(i => (1L << 62) + (i % 500) * 12345L), 13),
    "skewed with a long tail"          -> {
      val rng = new java.util.Random(11)
      Array.fill(20000)(if (rng.nextInt(4) == 0) rng.nextInt(3000).toLong else rng.nextInt(3).toLong)
    },
  ) ++ (57 to 63).map(w => s"fixed width $w" -> ofWidth(w, 300, w.toLong))

  private val golden: Map[String, String] = Map(
    "n=0, delta off" ->
      "auto=96a296d224f285c6 huff=96a296d224f285c6 fixed=96a296d224f285c6 costs=(2,None)",
    "n=0, delta on" ->
      "auto=47dc540c94ceb704 huff=47dc540c94ceb704 fixed=47dc540c94ceb704 costs=(2,None)",
    "n=0, prefix sum, delta on" ->
      "auto=47dc540c94ceb704 huff=47dc540c94ceb704 fixed=47dc540c94ceb704 costs=(2,None)",
    "n=1, delta off" ->
      "auto=f442010bd749749c huff=028803aedfb3610a fixed=f442010bd749749c costs=(8,Some(10))",
    "n=1, delta on" ->
      "auto=5efad688c522a48f huff=fa1351110deb4593 fixed=5efad688c522a48f costs=(8,Some(10))",
    "n=1, prefix sum, delta on" ->
      "auto=5efad688c522a48f huff=fa1351110deb4593 fixed=5efad688c522a48f costs=(8,Some(10))",
    "n=1 negative, delta off" ->
      "auto=0deec2acffdba3ab huff=01dd6e356f34c3c0 fixed=0deec2acffdba3ab costs=(5,Some(7))",
    "n=1 negative, delta on" ->
      "auto=40462d67e20929d3 huff=67ea8170379cc08b fixed=40462d67e20929d3 costs=(5,Some(7))",
    "n=1 negative, prefix sum, delta on" ->
      "auto=40462d67e20929d3 huff=67ea8170379cc08b fixed=40462d67e20929d3 costs=(5,Some(7))",
    "single symbol, delta off" ->
      "auto=f48bf7b62fbf26b2 huff=f48bf7b62fbf26b2 fixed=564514f15e5d1388 costs=(506,Some(132))",
    "single symbol, delta on" ->
      "auto=80bff61bebc4b069 huff=80bff61bebc4b069 fixed=38fd9019b249c56f costs=(506,Some(134))",
    "single symbol, prefix sum, delta on" ->
      "auto=2af0bcbe46d8867a huff=2af0bcbe46d8867a fixed=3f330a5a80a4030a costs=(506,Some(132))",
    "all zeros (width 0), delta off" ->
      "auto=e33ec5196b9c5187 huff=7396f214eea6c11a fixed=e33ec5196b9c5187 costs=(5,Some(105))",
    "all zeros (width 0), delta on" ->
      "auto=fa6ab5738bfeaaab huff=02392c3aa7af750c fixed=fa6ab5738bfeaaab costs=(5,Some(105))",
    "all zeros (width 0), prefix sum, delta on" ->
      "auto=fa6ab5738bfeaaab huff=02392c3aa7af750c fixed=fa6ab5738bfeaaab costs=(5,Some(105))",
    "16-symbol uniform, ties, delta off" ->
      "auto=aaf2eb052fa3af6d huff=aaf2eb052fa3af6d fixed=ec44f0e131b1c1da costs=(646,Some(550))",
    "16-symbol uniform, ties, delta on" ->
      "auto=86d8ee8992ffc7ba huff=86d8ee8992ffc7ba fixed=b82074640cc1b6a8 costs=(646,Some(196))",
    "16-symbol uniform, ties, prefix sum, delta on" ->
      "auto=240cea9a85c6982f huff=240cea9a85c6982f fixed=bf70a82115bbf556 costs=(646,Some(550))",
    "16-symbol uniform, shuffled, delta off" ->
      "auto=67f852f85d05d274 huff=2320ce9946e43041 fixed=67f852f85d05d274 costs=(518,Some(550))",
    "16-symbol uniform, shuffled, delta on" ->
      "auto=e1a5eb8207055e8f huff=a34bd9f420be3cf8 fixed=e1a5eb8207055e8f costs=(646,Some(676))",
    "16-symbol uniform, shuffled, prefix sum, delta on" ->
      "auto=be4bd12bee0e0d70 huff=d8fbd0da894bb30c fixed=be4bd12bee0e0d70 costs=(518,Some(550))",
    "16 wide symbols, uniform, delta off" ->
      "auto=79cefe105a7dce7c huff=79cefe105a7dce7c fixed=f05a02f872ca8a91 costs=(4358,Some(613))",
    "16 wide symbols, uniform, delta on" ->
      "auto=444ef537228ebc69 huff=444ef537228ebc69 fixed=8387ad48758ed0d9 costs=(4486,Some(801))",
    "16 wide symbols, uniform, prefix sum, delta on" ->
      "auto=bc616ccb4ea5f6bb huff=bc616ccb4ea5f6bb fixed=d21de079d8856571 costs=(4358,Some(613))",
    "13-symbol uniform, ties, delta off" ->
      "auto=881b415c25e3bebb huff=881b415c25e3bebb fixed=ae2b74c6bc8aa249 costs=(819,Some(645))",
    "13-symbol uniform, ties, delta on" ->
      "auto=a78f6de8dd968c91 huff=a78f6de8dd968c91 fixed=a2eb1785f5d9fa03 costs=(819,Some(773))",
    "13-symbol uniform, ties, prefix sum, delta on" ->
      "auto=587b1dcb3355dd09 huff=587b1dcb3355dd09 fixed=d971db651b694c5d costs=(819,Some(645))",
    "13 wide symbols, uniform, delta off" ->
      "auto=cc535e1846915ce4 huff=cc535e1846915ce4 fixed=646ff5b57a7a2806 costs=(5531,Some(693))",
    "13 wide symbols, uniform, delta on" ->
      "auto=ecebc64625bf3e85 huff=ecebc64625bf3e85 fixed=0d5e7c608806e214 costs=(5531,Some(870))",
    "13 wide symbols, uniform, prefix sum, delta on" ->
      "auto=4436f75c9779b363 huff=4436f75c9779b363 fixed=f34a6048e85599a4 costs=(5531,Some(693))",
    "4096 distinct codes, dense, delta off" ->
      "auto=d79129b96b5125ff huff=d79129b96b5125ff fixed=6d2b872d761ed7b4 costs=(51152,Some(22573))",
    "4096 distinct codes, dense, delta on" ->
      "auto=98deaa42b9040759 huff=98deaa42b9040759 fixed=98deaa42b9040759 costs=(55414,None)",
    "4096 distinct codes, dense, prefix sum, delta on" ->
      "auto=daf30b8330ac73bf huff=daf30b8330ac73bf fixed=1ddca5351945c7ba costs=(51152,Some(22573))",
    "4097 distinct codes, dense, delta off" ->
      "auto=3dd9bcf72dba0e24 huff=3dd9bcf72dba0e24 fixed=3dd9bcf72dba0e24 costs=(55416,None)",
    "4097 distinct codes, dense, delta on" ->
      "auto=720783081bff0a24 huff=720783081bff0a24 fixed=720783081bff0a24 costs=(59678,None)",
    "4097 distinct codes, dense, prefix sum, delta on" ->
      "auto=db46ffa4f25c06bd huff=db46ffa4f25c06bd fixed=db46ffa4f25c06bd costs=(55416,None)",
    "4096 distinct codes, sparse, delta off" ->
      "auto=343b8d2fb7ac68f8 huff=343b8d2fb7ac68f8 fixed=d261e31db304f4dd costs=(127868,Some(33633))",
    "4096 distinct codes, sparse, delta on" ->
      "auto=c9f09e8d74c3b90b huff=c9f09e8d74c3b90b fixed=c9f09e8d74c3b90b costs=(127868,None)",
    "4096 distinct codes, sparse, prefix sum, delta on" ->
      "auto=8ea976fb84c7a302 huff=8ea976fb84c7a302 fixed=5d929329f83eb3b2 costs=(127868,Some(33633))",
    "4097 distinct codes, sparse, delta off" ->
      "auto=a13464b80ee50ce2 huff=a13464b80ee50ce2 fixed=a13464b80ee50ce2 costs=(127872,None)",
    "4097 distinct codes, sparse, delta on" ->
      "auto=96391a55185fbb4c huff=96391a55185fbb4c fixed=96391a55185fbb4c costs=(127872,None)",
    "4097 distinct codes, sparse, prefix sum, delta on" ->
      "auto=0eae5ce03746d2f1 huff=0eae5ce03746d2f1 fixed=0eae5ce03746d2f1 costs=(127872,None)",
    "codes >= 2^16, few distinct, delta off" ->
      "auto=18bfa446ed9185c3 huff=18bfa446ed9185c3 fixed=67862f7259bd8124 costs=(19132,Some(774))",
    "codes >= 2^16, few distinct, delta on" ->
      "auto=156c22fcb5ae730c huff=156c22fcb5ae730c fixed=96a60d92d8687942 costs=(19507,Some(1528))",
    "codes >= 2^16, few distinct, prefix sum, delta on" ->
      "auto=938dedb40fc36366 huff=938dedb40fc36366 fixed=deeebe6c9955ee21 costs=(19132,Some(774))",
    "codes >= 2^63, delta off" ->
      "auto=IAE(requirement failed: FixedLength requires non-negative input) huff=37f38d775d0fd736 fixed=IAE(requirement failed: FixedLength requires non-negative input) costs=IAE(requirement failed: FixedLength requires non-negative input)",
    "codes >= 2^63, delta on" ->
      "auto=IAE(requirement failed: FixedLength requires non-negative input) huff=a446d397cc36281e fixed=IAE(requirement failed: FixedLength requires non-negative input) costs=IAE(requirement failed: FixedLength requires non-negative input)",
    "codes >= 2^63, prefix sum, delta on" ->
      "auto=IAE(requirement failed: FixedLength requires non-negative input) huff=d9d853dc7ffde27d fixed=IAE(requirement failed: FixedLength requires non-negative input) costs=IAE(requirement failed: FixedLength requires non-negative input)",
    "codes >= 2^63, many distinct, delta off" ->
      "auto=IAE(requirement failed: FixedLength requires non-negative input) huff=98a4c1f423295c41 fixed=IAE(requirement failed: FixedLength requires non-negative input) costs=IAE(requirement failed: FixedLength requires non-negative input)",
    "codes >= 2^63, many distinct, delta on" ->
      "auto=IAE(requirement failed: FixedLength requires non-negative input) huff=58b5e664d0004293 fixed=IAE(requirement failed: FixedLength requires non-negative input) costs=IAE(requirement failed: FixedLength requires non-negative input)",
    "codes >= 2^63, many distinct, prefix sum, delta on" ->
      "auto=IAE(requirement failed: FixedLength requires non-negative input) huff=b02545940fdd98f3 fixed=IAE(requirement failed: FixedLength requires non-negative input) costs=IAE(requirement failed: FixedLength requires non-negative input)",
    "skewed with a long tail, delta off" ->
      "auto=b9212336d0a14d1d huff=b9212336d0a14d1d fixed=5c60b79af174bafa costs=(32508,Some(19066))",
    "skewed with a long tail, delta on" ->
      "auto=3ed0d894b977de2a huff=3ed0d894b977de2a fixed=3ed0d894b977de2a costs=(32508,None)",
    "skewed with a long tail, prefix sum, delta on" ->
      "auto=6a0b57d2a22390ab huff=6a0b57d2a22390ab fixed=c8f29139971e228d costs=(32508,Some(19066))",
    "fixed width 57, delta off" ->
      "auto=7ee792d417612130 huff=e024e060318a3a6a fixed=7ee792d417612130 costs=(2144,Some(3018))",
    "fixed width 57, delta on" ->
      "auto=276acff83360eff3 huff=c9029739ef56d59a fixed=276acff83360eff3 costs=(2144,Some(3106))",
    "fixed width 57, prefix sum, delta on" ->
      "auto=083d6402b8a91067 huff=71424b8894ad4547 fixed=083d6402b8a91067 costs=(2144,Some(3018))",
    "fixed width 58, delta off" ->
      "auto=e3204930fcd36c45 huff=f049dec13480bbfc fixed=e3204930fcd36c45 costs=(2181,Some(3181))",
    "fixed width 58, delta on" ->
      "auto=276a401ef9579678 huff=ddfb249890b1e2ef fixed=276a401ef9579678 costs=(2181,Some(3184))",
    "fixed width 58, prefix sum, delta on" ->
      "auto=d53941a6aeffa99b huff=676236c7a33e095b fixed=d53941a6aeffa99b costs=(2181,Some(3181))",
    "fixed width 59, delta off" ->
      "auto=773e0ffa3507ee87 huff=9e7cd84f3e900501 fixed=773e0ffa3507ee87 costs=(2219,Some(3255))",
    "fixed width 59, delta on" ->
      "auto=4c7c36584e15da8c huff=5474556e1b663968 fixed=4c7c36584e15da8c costs=(2219,Some(3252))",
    "fixed width 59, prefix sum, delta on" ->
      "auto=c2c8e07bcb2d1c1c huff=671d91f63f8633c3 fixed=c2c8e07bcb2d1c1c costs=(2219,Some(3255))",
    "fixed width 60, delta off" ->
      "auto=38512c444edf3d03 huff=3c1bcf348f948871 fixed=38512c444edf3d03 costs=(2256,Some(3273))",
    "fixed width 60, delta on" ->
      "auto=6ab678bd92690ce7 huff=8758eae07e9b8a18 fixed=6ab678bd92690ce7 costs=(2256,Some(3290))",
    "fixed width 60, prefix sum, delta on" ->
      "auto=aa9c6979fb50d6e2 huff=52692841588d021b fixed=aa9c6979fb50d6e2 costs=(2256,Some(3273))",
    "fixed width 61, delta off" ->
      "auto=a25d3fe4ad5dc943 huff=195245a9fa6a783a fixed=a25d3fe4ad5dc943 costs=(2294,Some(3302))",
    "fixed width 61, delta on" ->
      "auto=450a64598070e757 huff=16f646fab63638e5 fixed=450a64598070e757 costs=(2294,Some(3288))",
    "fixed width 61, prefix sum, delta on" ->
      "auto=d888d3c0af488540 huff=688dac63db53f37a fixed=d888d3c0af488540 costs=(2294,Some(3302))",
    "fixed width 62, delta off" ->
      "auto=da73ebcfb11fb9e6 huff=50f570c7aaf80671 fixed=da73ebcfb11fb9e6 costs=(2331,Some(3306))",
    "fixed width 62, delta on" ->
      "auto=db1c0f47e98253d3 huff=0788137f3c750d9a fixed=db1c0f47e98253d3 costs=(2331,Some(3308))",
    "fixed width 62, prefix sum, delta on" ->
      "auto=f690a0dfb54c2af6 huff=9c6b7ea2288ac901 fixed=f690a0dfb54c2af6 costs=(2331,Some(3306))",
    "fixed width 63, delta off" ->
      "auto=dfd05a9d9901a548 huff=1c628be09f533970 fixed=dfd05a9d9901a548 costs=(2369,Some(3314))",
    "fixed width 63, delta on" ->
      "auto=056b4a8ce7be3a4a huff=789e0027a526e014 fixed=056b4a8ce7be3a4a costs=(2369,Some(3312))",
    "fixed width 63, prefix sum, delta on" ->
      "auto=c9e57464164d3898 huff=b6e5395bf4b722a6 fixed=c9e57464164d3898 costs=(2369,Some(3314))",
    "FixedLength width 57" ->
      "806ea98279f496a6",
    "FixedLength width 58" ->
      "68e6b8eab805ec20",
    "FixedLength width 59" ->
      "6836e5ee9cb0a700",
    "FixedLength width 60" ->
      "9f2cf48efbce41e2",
    "FixedLength width 61" ->
      "770a8852e0f9d25e",
    "FixedLength width 62" ->
      "8b10421600b40d23",
    "FixedLength width 63" ->
      "2d68cd8047a19e80",
    "FixedLength width 64" ->
      "844117cfd11fb73b",
    "Draco" ->
      "1ba99111240edd25205962671f6ca4ced320681ec4b4f5406305019a46a41487",
    "TMC13" ->
      "4aaa78628fd70f29434f62048e3e22fa9d80ea5990ea811240007d47ae5da5f0",
    "ZFP" ->
      "c48473d12ba21e6f8e4b1bab567dc7d887078d9d52e83b1a15f2f7842ddddd3b",
  )

  for ((name, a) <- arrays; (variant, in, delta) <- Seq(("delta off", a, false), ("delta on", a, true),
                                                         ("prefix sum, delta on", prefixSum(a), true))) {
    val key = s"$name, $variant"
    test(s"IntCoder golden: $key") {
      val got = cell(in, delta)
      assert(golden.get(key).contains(got), s"GOLDEN $key -> $got")
    }
  }

  for (w <- 57 to 64) test(s"FixedLength golden: width $w") {
    val rng  = new java.util.Random(100L + w)
    val mask = if (w == 64) -1L else (1L << w) - 1
    val a    = Array.fill(301)(rng.nextLong() & mask)
    val got  = sha256(FixedLength.encode(a, w)).take(16)
    assert(golden.get(s"FixedLength width $w").contains(got), s"GOLDEN FixedLength width $w -> $got")
  }

  private lazy val baselineFrames = TestFrames.copper(800, 8)

  for (codec <- Seq[ParticleCodec](DracoLike, Tmc13Like, ZfpLike))
    test(s"${codec.name} golden payload: copper 800x8, eb 0.02, batch 4") {
      val got = sha256(codec.compress(baselineFrames, 0.02, 4).payload)
      assert(golden.get(codec.name).contains(got), s"GOLDEN ${codec.name} -> $got")
    }
}
