package repro.coding

import java.io.{ByteArrayOutputStream, InputStream}
import scala.collection.mutable

/** Canonical Huffman coder over Long symbols — the variable-length coding
  * choice of §6.2.2. The coding table is serialized compactly (symbol
  * varints + one length byte each) so the table-vs-payload tradeoff the
  * paper measures in Table 3 is faithfully reproduced.
  */
object Huffman {

  /** A built code: symbol -> (codeword, bit length), canonical ordering. */
  final case class Code(lengths: Map[Long, Int], codes: Map[Long, Long]) {
    def maxLen: Int = if (lengths.isEmpty) 0 else lengths.valuesIterator.max

    /** Exact payload bits to code `a` with this table. */
    def payloadBits(freq: mutable.LongMap[Long]): Long =
      freq.iterator.map { case (s, f) => f * lengths(s) }.sum

    /** Serialized table size in bytes. */
    def tableBytes: Int = {
      val out = new ByteArrayOutputStream()
      writeTable(out)
      out.size()
    }

    def writeTable(out: ByteArrayOutputStream): Unit = {
      Zigzag.writeVarLong(out, lengths.size.toLong)
      // Canonical order (length, symbol) keeps decode tables reconstructible.
      lengths.toSeq.sortBy { case (s, l) => (l, s) }.foreach { case (s, l) =>
        Zigzag.writeVarLong(out, s)
        out.write(l)
      }
    }
  }

  /** Histogram of `a` as a primitive-friendly LongMap. */
  def frequencies(a: Array[Long]): mutable.LongMap[Long] = {
    val m = new mutable.LongMap[Long]()
    var i = 0
    while (i < a.length) { m(a(i)) = m.getOrElse(a(i), 0L) + 1L; i += 1 }
    m
  }

  /** Build a canonical Huffman code from a histogram. Returns None when the
    * code is unusable (empty input or code lengths exceeding 58 bits, which
    * cannot happen for realistic block arrays but guards adversarial input).
    */
  def build(freq: mutable.LongMap[Long]): Option[Code] = {
    if (freq.isEmpty) return Some(Code(Map.empty, Map.empty))
    if (freq.size == 1) {
      val s = freq.keysIterator.next()
      return Some(Code(Map(s -> 1), Map(s -> 0L)))
    }
    // Array-based Huffman tree: leaves 0..m-1, internals m..2m-2, parent
    // pointers let each leaf's depth be read off in O(depth). Leaves are
    // weight-sorted once; merging then uses the classic two-queue scan
    // (internal nodes are produced in non-decreasing weight order), so the
    // build is O(m log m) with no boxed priority queue — large alphabets
    // (Morton deltas, big blocks) build in milliseconds, not seconds.
    val m       = freq.size
    val symbols = new Array[Long](m)
    val weight  = new Array[Long](2 * m - 1)
    val parent  = new Array[Int](2 * m - 1)
    java.util.Arrays.fill(parent, -1)
    locally {
      var i = 0
      freq.foreach { case (s, f) => symbols(i) = s; weight(i) = f; i += 1 }
    }
    locally {
      val order = (0 until m).toArray.sortBy(weight(_))
      val leafQ  = order
      var leafPos = 0
      val nodeQ   = new Array[Int](m - 1)
      var nodeHead = 0
      var nodeTail = 0
      var next = m
      @inline def takeMin(): Int = {
        val leafOk = leafPos < m
        val nodeOk = nodeHead < nodeTail
        if (leafOk && (!nodeOk || weight(leafQ(leafPos)) <= weight(nodeQ(nodeHead)))) {
          leafPos += 1; leafQ(leafPos - 1)
        } else { nodeHead += 1; nodeQ(nodeHead - 1) }
      }
      while (next < 2 * m - 1) {
        val a = takeMin(); val b = takeMin()
        weight(next) = weight(a) + weight(b)
        parent(a) = next; parent(b) = next
        nodeQ(nodeTail) = next; nodeTail += 1
        next += 1
      }
    }
    val lengths = Map.newBuilder[Long, Int]
    var maxLen  = 0
    var i = 0
    while (i < m) {
      var d = 0
      var p = i
      while (parent(p) >= 0) { p = parent(p); d += 1 }
      if (d > maxLen) maxLen = d
      lengths += symbols(i) -> d
      i += 1
    }
    if (maxLen > 58) return None
    Some { val ls = lengths.result(); Code(ls, canonicalCodes(ls)) }
  }

  /** Assign canonical codewords given code lengths. */
  private def canonicalCodes(lengths: Map[Long, Int]): Map[Long, Long] = {
    var code   = 0L
    var prevL  = 0
    val sorted = lengths.toSeq.sortBy { case (s, l) => (l, s) }
    sorted.map { case (s, l) =>
      code <<= (l - prevL)
      prevL = l
      val c = code
      code += 1
      s -> c
    }.toMap
  }

  /** Encode `a` with `code` into a bit-packed byte array. */
  def encodePayload(a: Array[Long], code: Code): Array[Byte] = {
    val w = new BitWriter(a.length)
    var i = 0
    while (i < a.length) {
      val s = a(i)
      w.writeBits(code.codes(s), code.lengths(s))
      i += 1
    }
    w.toBytes
  }

  object Decoder {
    /** Lookup-table window width: codes up to this length decode in one
      * table hit. Heavy-tailed delta alphabets (sparse block ids) carry
      * real mass past 11 bits, so the window is 16 bits (a 640 KB table,
      * built in ~0.1 ms) — beyond it the canonical walk handles the tail. */
    val TableBits = 16
  }

  /** Decoder tables reconstructed from a serialized table stream. */
  final class Decoder(in: InputStream) {
    private val n = Zigzag.readVarLong(in).toInt
    // Symbols arrive in canonical (length, symbol) order.
    private val syms = new Array[Long](n)
    private val lens = new Array[Int](n)
    locally {
      var i = 0
      while (i < n) {
        syms(i) = Zigzag.readVarLong(in)
        lens(i) = in.read()
        require(lens(i) > 0 && lens(i) <= 58, s"bad code length ${lens(i)}")
        i += 1
      }
    }
    private val maxLen = if (n == 0) 0 else lens(n - 1)
    // firstCode(l), firstIndex(l), count(l) per length for canonical decode.
    private val count      = new Array[Int](maxLen + 2)
    private val firstCode  = new Array[Long](maxLen + 2)
    private val firstIndex = new Array[Int](maxLen + 2)
    locally {
      lens.foreach(l => count(l) += 1)
      var code = 0L
      var idx  = 0
      var l    = 1
      while (l <= maxLen) {
        firstCode(l) = code
        firstIndex(l) = idx
        code = (code + count(l)) << 1
        idx += count(l)
        l += 1
      }
    }

    // One-shot lookup table over the first TableBits bits: codes no longer
    // than TableBits decode in a single peek+skip; longer codes (rare, only
    // deep-tail symbols) fall back to the canonical bit-by-bit walk.
    private val tableBits = math.min(maxLen, Decoder.TableBits)
    private val symTable  = new Array[Long](if (n == 0) 0 else 1 << tableBits)
    private val lenTable  = new Array[Byte](if (n == 0) 0 else 1 << tableBits)
    locally {
      var l = 1
      // Re-walk canonical codes in (length, symbol) order.
      while (l <= maxLen) {
        var k = 0
        while (k < count(l)) {
          val c = firstCode(l) + k
          if (l <= tableBits) {
            val base = (c << (tableBits - l)).toInt
            var fill = 0
            while (fill < (1 << (tableBits - l))) {
              symTable(base + fill) = syms(firstIndex(l) + k)
              lenTable(base + fill) = l.toByte
              fill += 1
            }
          }
          k += 1
        }
        l += 1
      }
    }

    /** Decode `m` symbols from `r`. */
    def decode(r: BitReader, m: Int): Array[Long] = {
      val out = new Array[Long](m)
      var i   = 0
      while (i < m) {
        val window = r.peekBits(tableBits).toInt
        val l      = lenTable(window)
        if (l > 0) {
          out(i) = symTable(window)
          r.skipBits(l)
        } else {
          // Slow path for codes longer than the table window.
          var code = 0L
          var len  = 0
          var found = false
          while (!found) {
            code = (code << 1) | r.readBit()
            len += 1
            require(len <= maxLen, "corrupt Huffman stream")
            val offset = code - firstCode(len)
            if (count(len) > 0 && offset >= 0 && offset < count(len)) {
              out(i) = syms(firstIndex(len) + offset.toInt)
              found = true
            }
          }
        }
        i += 1
      }
      out
    }
  }
}
