package repro.perfbench

/** Minimal JSON writer for the benchmark's output lines and trace file. */
object Json {
  def write(v: Any): String = {
    val sb = new StringBuilder
    emit(v, sb)
    sb.toString
  }

  private def emit(v: Any, sb: StringBuilder): Unit = v match {
    case null                  => sb ++= "null"
    case s: String             => quote(s, sb)
    case b: Boolean            => sb ++= b.toString
    case d: Double             =>
      require(!d.isNaN && !d.isInfinite, s"non-finite number in output: $d")
      sb ++= d.toString
    case i: Int                => sb ++= i.toString
    case l: Long               => sb ++= l.toString
    case m: collection.Map[_, _] =>
      sb += '{'
      var first = true
      m.foreach { case (k, x) =>
        if (!first) sb += ','
        first = false
        quote(k.toString, sb); sb += ':'; emit(x, sb)
      }
      sb += '}'
    case xs: Iterable[_]       =>
      sb += '['
      var first = true
      xs.foreach { x => if (!first) sb += ','; first = false; emit(x, sb) }
      sb += ']'
    case other                 => quote(other.toString, sb)
  }

  private def quote(s: String, sb: StringBuilder): Unit = {
    sb += '"'
    s.foreach {
      case '"'           => sb ++= "\\\""
      case '\\'          => sb ++= "\\\\"
      case '\n'          => sb ++= "\\n"
      case c if c < ' '  => sb ++= f"\\u${c.toInt}%04x"
      case c             => sb += c
    }
    sb += '"'
  }
}
