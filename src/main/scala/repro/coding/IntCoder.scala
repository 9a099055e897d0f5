package repro.coding

import java.io.ByteArrayInputStream

/** The §6.2.2 coding chain for one integer array: delta coding, zigzag,
  * then *either* canonical Huffman or fixed-length packing — whichever
  * encodes to fewer bytes, table/header overhead included (the tradeoff
  * the paper quantifies in Table 3) — ready for the final Zstd stage.
  *
  * Stream layout: flags byte (bit0 = delta, bit1 = huffman), varint count,
  * then the method-specific table/width and the length-prefixed payload.
  *
  * Encoding is one primitive kernel (DESIGN.md §3): a fused delta/zigzag
  * pass, a boxing-free histogram that stops past the Huffman alphabet
  * limit, a flat-array code, and accumulator packing into exactly sized
  * arrays. The Huffman code is built once and reused for both costing and
  * encoding.
  */
object IntCoder {
  /** Above this alphabet size Huffman degenerates: near-unique symbols get
    * ~log2(k)-bit codes plus a table rivalling the payload, while decode
    * pays a per-symbol-table parse. Such arrays (sparse block-id deltas,
    * Morton deltas) go fixed-length instead — the trailing Zstd stage
    * recovers the residual redundancy and the decode path stays a straight
    * bit-unpack. */
  private val MaxHuffmanAlphabet = 4096

  import Zigzag.varLongLen

  /** The coded symbols of one array: its (delta and) zigzag codes, plus the
    * OR of all codes, which gives their fixed-length width. */
  private final class Prepared(val z: Array[Long], val or: Long) {
    def n: Int = z.length

    def width: Int = FixedLength.widthOfOr(or)
  }

  /** Exactly the bytes [[emit]] writes for `n` codes with a head (the
    * Huffman table or the width byte) and a payload of the given sizes:
    * flags, the count varint, the head, the payload length varint and the
    * payload. An empty array is its flags and count alone. */
  private def encodedSize(n: Int, head: Long, payload: Long): Long =
    if (n == 0) 2L else 1L + varLongLen(n) + head + varLongLen(payload) + payload

  /** Delta (when on) and zigzag in one pass into a fresh array. */
  private def prepare(a: Array[Long], delta: Boolean): Prepared = {
    val z    = new Array[Long](a.length)
    var or   = 0L
    var prev = 0L
    var i    = 0
    while (i < a.length) {
      val v = a(i)
      val c = Zigzag.encode(if (delta) v - prev else v)
      z(i) = c
      or |= c
      prev = v
      i += 1
    }
    new Prepared(z, or)
  }

  /** The Huffman code of the codes and their histogram; None when the array
    * is empty, has more than [[MaxHuffmanAlphabet]] distinct codes (the
    * count stops there), or the code lengths degenerate. */
  private def buildCode(p: Prepared): Option[(Huffman.Code, Huffman.Histogram)] =
    if (p.n == 0) None
    else Huffman.histogram(p.z, p.or, MaxHuffmanAlphabet).flatMap(h => Huffman.build(h).map(_ -> h))

  /** flags, the count varint, the method's head (the Huffman table or the
    * width byte), then the payload as a section. */
  private def emit(p: Prepared, delta: Boolean, huffman: Option[(Huffman.Code, Huffman.Histogram)]): Array[Byte] = {
    val n     = p.n
    val flags = (if (delta) 1 else 0) | (if (huffman.isDefined) 2 else 0)
    if (n == 0) return Array(flags.toByte, 0.toByte)
    val (head, payload) = huffman match {
      case Some((code, h)) => (code.table, code.encodePayload(h))
      case None            => (Array(p.width.toByte), FixedLength.encode(p.z, p.width))
    }
    val out = new Array[Byte](encodedSize(n, head.length, payload.length).toInt)
    out(0) = flags.toByte
    var pos = Zigzag.putVarLong(out, 1, n.toLong)
    System.arraycopy(head, 0, out, pos, head.length)
    pos = Zigzag.putVarLong(out, pos + head.length, payload.length.toLong)
    System.arraycopy(payload, 0, out, pos, payload.length)
    out
  }

  /** One array's exact encoded size under each method, computed before a
    * bit is packed (`huffmanSize` is None past the alphabet limit or for
    * degenerate code lengths), and `size`, the smaller, whose method [[pack]]
    * writes (fixed on a tie). A code left unused is not kept. */
  final class Plan private[IntCoder] (p: Prepared, delta: Boolean, code: Option[(Huffman.Code, Huffman.Histogram)]) {
    val huffmanSize: Option[Long] = code.map { case (c, h) => encodedSize(p.n, c.tableBytes, (c.payloadBits(h) + 7) / 8) }
    val fixedSize: Long           = encodedSize(p.n, 1, (p.width.toLong * p.n + 7) / 8)
    val size: Long                = huffmanSize.filter(_ < fixedSize).getOrElse(fixedSize)
    private val huffman           = if (size < fixedSize) code else None

    def pack(): Array[Byte] = emit(p, delta, huffman)
  }

  /** Plan `a`'s encoding under both methods. */
  def plan(a: Array[Long], delta: Boolean = true): Plan = {
    val p = prepare(a, delta)
    new Plan(p, delta, buildCode(p))
  }

  /** Encode `a` as [[plan]] chooses. */
  def encode(a: Array[Long], delta: Boolean = true): Array[Byte] = plan(a, delta).pack()

  /** Encode with an explicit method choice (tests check [[encode]]'s choice with it). */
  def encodeForced(a: Array[Long], delta: Boolean, useHuffman: Boolean): Array[Byte] = {
    val p = prepare(a, delta)
    emit(p, delta, if (useHuffman) buildCode(p) else None)
  }

  /** Decode one array written by [[encode]]/[[encodeForced]], holding at
    * most `maxCount` values (the caller's particle count, when it knows
    * one). The Huffman table yields zigzag-decoded values directly, a
    * fixed-length array is zigzag-decoded in place, and the delta prefix
    * sum runs last, in place. */
  def decode(in: ByteArrayInputStream, maxCount: Int = Int.MaxValue): Array[Long] = {
    val s = read(in, maxCount)
    val z =
      if (s.huffman != null) s.huffman.decode(s.payload, s.n)
      else {
        val c = FixedLength.decode(s.payload, s.n, s.width)
        var i = 0
        while (i < s.n) { c(i) = Zigzag.decode(c(i)); i += 1 }
        c
      }
    if (s.delta) {
      var prev = 0L
      var i    = 0
      while (i < s.n) { prev += z(i); z(i) = prev; i += 1 }
    }
    z
  }

  /** Decode a residual array, written by `encode(q, delta = false)`,
    * straight into `prev(i) + step(q(i))` (LCP-T's reconstruction). The
    * count must be `prev.length`, and a delta-coded array is rejected. A
    * Huffman array decodes with no intermediate `Long` array and `step`
    * evaluated once per distinct symbol; a fixed-length array is unpacked,
    * then reconstructed in one pass. */
  def decodeResiduals(in: ByteArrayInputStream, prev: Array[Double], step: Long => Double): Array[Double] = {
    val s = read(in, prev.length)
    require(!s.delta, "IntCoder: a residual array is never delta coded")
    require(s.n == prev.length, s"IntCoder: ${s.n} residuals for ${prev.length} predictions")
    if (s.huffman != null) s.huffman.decodeResiduals(s.payload, prev, step)
    else {
      val c   = FixedLength.decode(s.payload, s.n, s.width)
      val out = new Array[Double](s.n)
      var i   = 0
      while (i < s.n) { out(i) = prev(i) + step(Zigzag.decode(c(i))); i += 1 }
      out
    }
  }

  /** One stored array: its delta flag, its count `n`, then the Huffman
    * decoder (`null` for a fixed-length array) or the fixed `width`, and the
    * payload. An empty array reads as a fixed-length one with no payload. */
  private final class Stored(val delta: Boolean, val n: Int, val huffman: Huffman.Decoder, val width: Int,
                             val payload: Array[Byte])

  /** Read one array's stream, which must end with its payload. The count
    * comes from the input: it is checked against `maxCount` and against the
    * payload (a symbol takes at least one bit, a fixed-length value its
    * width) before anything is sized by it. */
  private def read(in: ByteArrayInputStream, maxCount: Int): Stored = {
    val flags = in.read()
    require(flags >= 0, "IntCoder: EOF")
    val delta = (flags & 1) != 0
    val n     = ByteIO.readCount(in, maxCount, "IntCoder count")
    val s =
      if (n == 0) new Stored(delta, 0, null, 0, Array.emptyByteArray)
      else if ((flags & 2) != 0) {
        val dec     = new Huffman.Decoder(in)
        val payload = ByteIO.readSection(in)
        require(n <= 8L * payload.length, s"IntCoder: $n symbols in ${payload.length} Huffman bytes")
        new Stored(delta, n, dec, 0, payload)
      } else {
        val width = in.read()
        new Stored(delta, n, null, width, ByteIO.readSection(in))
      }
    ByteIO.requireEnd(in, "the IntCoder array")
    s
  }
}
